"""Kernel distribution of the presymplectic form and the reduced phase space.

All linear algebra is exact over the rationals, and elimination works on
sparse rows that store only their nonzero entries, so its cost follows the
nonzeros of the (mostly empty) systems rather than their size.  The form is
flattened to a coefficient system over a declared universe of coordinates;
it is read off in one walk over the form's terms.  Kernel vectors
are constant rational combinations of coordinate directions, computed
exactly and certified without sampling (see kernel_basis), and survivors
are returned as the canonical (reduced row echelon) basis of the linear
forms annihilating the kernel, so coordinate kernels give back plain
surviving coordinates and trace-like combinations come out with unit
leading coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    FIBER,
    VDIFF,
    GradedAlgebraError,
    Generator,
    Poly,
    Scalar,
    accumulate,
    qdiv,
    rational,
)
from .cartan import VectorField


class ReductionError(GradedAlgebraError):
    pass


def rref(rows: List[List[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Rows are eliminated as {column: value} dicts holding no zero: a column is
    cleared only from the rows that have an entry there, over the pivot
    row's entries only.  The pivot is the shortest candidate row, which keeps
    fill-in low; the result does not depend on it, since the reduced row
    echelon form of a matrix is unique.  Its entries are in the normal form
    of gpde.algebra: an int when integral, else a Fraction."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    todo = [r for r in ({c: v for c, v in enumerate(row) if v} for row in rows) if r]
    done: List[Dict[int, Scalar]] = []
    pivots = []
    for c in range(ncols):
        if not todo:
            break
        best = None
        for i, r in enumerate(todo):
            if c in r and (best is None or len(r) < len(todo[best])):
                best = i
        if best is None:
            continue
        prow = todo.pop(best)
        pv = prow.pop(c)
        if pv != 1:
            prow = {k: qdiv(v, pv) for k, v in prow.items()}
        for row in done + todo:
            f = row.pop(c, None)
            if f is None:
                continue
            for k, v in prow.items():
                old = row.get(k)
                if old is None:
                    row[k] = -f * v
                else:
                    new = old - f * v
                    if new:
                        row[k] = new
                    else:
                        del row[k]
        prow[c] = 1
        done.append(prow)
        pivots.append(c)
    dense = []
    for row in done:
        out = [0] * ncols
        for k, v in row.items():
            out[k] = v if type(v) is int else rational(v)
        dense.append(out)
    return dense, pivots


def nullspace(rows: List[List[Scalar]], ncols: int) -> List[List[Scalar]]:
    """Basis of the right kernel of the row system, one vector per free column."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for ri, pc in enumerate(pivots):
            v = red[ri][fc]
            if v:
                vec[pc] = -v
        basis.append(vec)
    return basis


def form_universe(form: Poly) -> List[Generator]:
    """The coordinates whose differentials occur in a form, in canonical
    order."""
    return sorted({form.space.coordinate_of(g) for mono in form.terms for g, _ in mono
                   if g.fdeg == 1}, key=lambda g: g._sort)


class PresymplecticMatrix:
    """Contractions of a two-form along the unit field of each universe
    coordinate.  A constant vector K is in the kernel of the form exactly
    when sum_A K^A columns[A] vanishes identically.

    All columns are filled in one walk over the form's terms: contracting
    the unit field of u^A replaces a differential of u^A (horizontal or
    vertical) by 1 with the left-Leibniz sign of interior(), which is
    (gh(u^A)+1) times the parity of the monomial prefix, and an even
    differential of exponent e > 1 leaves e copies of the power e-1."""

    def __init__(self, form: Poly, universe: Sequence[Generator]):
        self.form = form
        self.universe = list(universe)
        space = form.space
        index = {g: A for A, g in enumerate(self.universe)}
        ipar = [(g.gh + 1) & 1 for g in self.universe]
        acc: List[dict] = [{} for _ in self.universe]
        for m, c in form.terms.items():
            prefix = 0
            for idx, (g, e) in enumerate(m):
                A = index.get(space.coordinate_of(g)) if g.fdeg else None
                if A is not None:
                    coeff = c * e if e > 1 else c
                    if prefix & ipar[A]:
                        coeff = -coeff
                    rest = m[:idx] + ((g, e - 1),) if e > 1 else m[:idx]
                    accumulate(acc[A], ((rest + m[idx + 1:], coeff),))
                prefix ^= g.parity & e
        self.columns = [Poly(space, terms) for terms in acc]

    def is_constant(self) -> bool:
        for col in self.columns:
            for mono in col.terms:
                if any(g.fdeg == 0 for g, _ in mono):
                    return False
        return True

    def matrix(self) -> List[List[Scalar]]:
        rows: Dict = {}
        for A, col in enumerate(self.columns):
            for mono, c in col.terms.items():
                rows.setdefault(mono, {})[A] = c
        keys = sorted(rows, key=lambda m: tuple((g._sort, e) for g, e in m))
        return [[rows[m].get(A, 0) for A in range(len(self.universe))]
                for m in keys]

    def kernel(self) -> List[List[Scalar]]:
        return nullspace(self.matrix(), len(self.universe))


def _body(form: Poly, point: Optional[Dict[Generator, Scalar]] = None) -> Poly:
    """The form with its odd coordinates at zero and, when a point is given,
    every even coordinate at its value there (zero when not given);
    differentials are untouched."""
    subs = {g: Poly.scalar(0 if g.parity else point.get(g, 0))
            for g in form.generators() if g.fdeg == 0 and (g.parity or point is not None)}
    return form.substitute(subs) if subs else form


# two fixed rational points, by the index of each coordinate in canonical order
_WITNESSES = (lambda k: Fraction(2 * k + 3, 2), lambda k: Fraction(-5, 2 * k + 7))


def kernel_basis(form: Poly, universe: Sequence[Generator],
                 point: Optional[Dict[Generator, Scalar]] = None) -> List[List[Scalar]]:
    """Kernel of the form's body over the universe, as constant vectors.

    Given a point, the body is evaluated there and the kernel is the
    pointwise one.  Otherwise even coordinates stay symbolic; matrix() keys
    its rows by the full monomial, so the nullspace K0 is exactly the set of
    constant vectors annihilating the form identically.  K0 lies in the
    kernel at every point, so a fixed point where the kernel has the
    dimension of K0 certifies K0 as the generic kernel.  A point can only
    support a refusal: when both fixed points show a larger kernel, the
    kernel distribution is taken to vary and the form is refused."""
    body = _body(form, point)
    pm = PresymplecticMatrix(body, universe)
    kernel = pm.kernel()
    if not pm.is_constant():
        coords = sorted({g for col in pm.columns for mono in col.terms
                         for g, _ in mono if g.fdeg == 0}, key=lambda g: g._sort)
        if all(len(kernel_basis(body, universe, {g: value(k) for k, g in enumerate(coords)}))
               > len(kernel) for value in _WITNESSES):
            raise ReductionError("kernel distribution is not constant in these coordinates")
    return kernel


class ReducedModel:
    """Quotient by the kernel distribution.

    survivors[i] is a fresh coordinate generator representing the linear
    form survivor_forms[i] over the original universe; form is the two-form
    that was reduced (the body of the input) and reduced_form the same form
    rewritten in the surviving differentials; s_action, when requested, is
    the projected evolutionary field on the survivors."""

    def __init__(self, space, survivors, survivor_forms, kernel_vectors,
                 reduced_form, universe, form, s_action=None):
        self.space = space
        self.survivors = survivors
        self.survivor_forms = survivor_forms
        self.kernel_vectors = kernel_vectors
        self.reduced_form = reduced_form
        self.universe = universe
        self.form = form
        self.s_action = s_action

    def split_residual(self) -> Poly:
        """reduced_form with each survivor differential dw_i replaced by its
        linear form sum_A lambda_i^A du^A (vertical where dw_i is), minus the
        form that was reduced: zero exactly when the quotient keeps all of
        the form."""
        space = self.space
        lam = dict(zip(self.survivors, self.survivor_forms))
        back = {}
        for dw in self.reduced_form.generators():
            if dw.fdeg:
                vertical = dw.role == VDIFF
                back[dw] = Poly(space, {((space.differential(u, vertical=vertical), 1),): c
                                        for u, c in zip(self.universe,
                                                        lam[space.coordinate_of(dw)]) if c})
        return self.reduced_form.substitute(back) - self.form

    def survivor_equations(self) -> List[Tuple[Generator, Poly]]:
        """Each survivor with the linear form it stands for."""
        return [(g, Poly(self.space, {((self.universe[A], 1),): c for A, c in enumerate(lam)}))
                for g, lam in zip(self.survivors, self.survivor_forms)]

    def describe_survivors(self) -> List[str]:
        from .printing import equations

        return equations(self.survivor_equations())


def _first_free_index(space) -> int:
    """One past the largest i such that a coordinate named w<i> exists.

    Survivors are interned in the form's space, so a later reduction in the
    same space must number its survivors on from there: reusing a name would
    either redeclare it with another ghost number or silently identify two
    unrelated survivors."""
    taken = [g.name[1:] for g in space.generators()
             if g.fdeg == 0 and g.name.startswith("w")]
    return 1 + max((int(t) for t in taken if t.isdigit()), default=-1)


def reduce_form(form: Poly, universe: Sequence[Generator],
                point: Optional[Dict[Generator, Scalar]] = None,
                s: Optional[VectorField] = None) -> ReducedModel:
    """Quotient the universe by the kernel of the form's body (see
    kernel_basis; with a point the reduction is pointwise).

    Refuses kernels that mix ghost degrees (no graded splitting exists).
    When an evolutionary field s is supplied, the projected action must be
    constant along the kernel, otherwise the reduction is refused.
    Survivors are new coordinates named w<i>, numbered on from any such
    names already in the space.
    """
    universe = list(universe)
    ncols = len(universe)
    index = {g: A for A, g in enumerate(universe)}
    space = form.space
    body = _body(form, point)
    kernel, _ = rref(kernel_basis(body, universe))
    for vec in kernel:
        ghs = {universe[A].gh for A in range(ncols) if vec[A]}
        if len(ghs) > 1:
            raise ReductionError(
                "kernel mixes coordinates of different ghost degree; "
                "no graded splitting exists"
            )

    # the linear forms vanishing on the kernel (all of them when it is empty)
    ann = nullspace(kernel, ncols)
    # each annihilator row is 1 at a free column and otherwise nonzero only
    # at the pivots of kernel rows holding that column, so the check above
    # makes it one ghost degree
    first = _first_free_index(space)
    survivors: List[Generator] = []
    survivor_forms: List[List[Scalar]] = []
    for i, lam in enumerate(ann):
        gh = universe[next(A for A in range(ncols) if lam[A])].gh
        survivors.append(space.coordinate(f"w{first + i}", FIBER, gh))
        survivor_forms.append(list(lam))

    # invert the (survivor rows; kernel rows) basis change
    T = ann + kernel
    if len(T) != ncols:
        raise ReductionError("annihilator and kernel do not split the universe")
    aug = [row + [0] * ncols for row in T]
    for i, row in enumerate(aug):
        row[ncols + i] = 1
    red, pivots = rref(aug)
    if pivots != list(range(ncols)):
        raise ReductionError("basis change is singular")
    tinv = [[red[i][ncols + j] for j in range(ncols)] for i in range(ncols)]

    # substitution tables: coordinates to survivor combinations (kernel part
    # dropped, which is evaluation at kernel coordinates zero), and each
    # differential present in the form to the matching survivor differentials
    csub: Dict[Generator, Poly] = {}
    for A, g in enumerate(universe):
        csub[g] = Poly(space, {((w, 1),): t for w, t in zip(survivors, tinv[A])})
    dsub: Dict[Generator, Poly] = {}
    for mono in body.terms:
        for g, _ in mono:
            if g.fdeg != 1 or g in dsub:
                continue
            base = space.coordinate_of(g)
            A = index.get(base)
            if A is None:
                raise ReductionError(
                    f"form contains the differential of {base.name!r}, "
                    "which is outside the universe"
                )
            vertical = g.role == VDIFF
            dsub[g] = Poly(space, {((space.differential(w, vertical=vertical), 1),): t
                                   for w, t in zip(survivors, tinv[A]) if t})

    reduced = body.substitute(dsub)

    s_action = None
    if s is not None:
        # each kernel direction as a field, with the coordinates it moves
        kfields = []
        for vec in kernel:
            touched = [A for A in range(ncols) if vec[A]]
            kfield = VectorField(space, -universe[touched[0]].gh,
                                 coeffs={universe[A]: vec[A] for A in touched})
            kfields.append(({universe[A] for A in touched}, kfield))
        s_action = {}
        for i, g in enumerate(survivors):
            terms: dict = {}
            for A in range(ncols):
                if survivor_forms[i][A]:
                    image = survivor_forms[i][A] * s.coefficient(universe[A])
                    accumulate(terms, image.terms.items())
            expr = Poly(space, terms)
            # constancy along every kernel direction; a field that moves no
            # coordinate of the 0-form expr sends it to zero
            held = expr.generators()
            for moved, kfield in kfields:
                if moved.isdisjoint(held):
                    continue
                if not kfield.apply(expr).is_zero():
                    raise ReductionError(
                        "the evolutionary field does not descend: "
                        "survivor image varies along the kernel"
                    )
            s_action[g] = expr.substitute({h: csub[h] for h in held if h in csub})

    return ReducedModel(space, survivors, survivor_forms, kernel, reduced,
                        universe, body, s_action=s_action)
