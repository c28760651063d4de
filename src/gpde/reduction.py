"""Kernel distribution of the presymplectic form and the reduced phase space.

All linear algebra is exact over the rationals and works on sparse rows
{column: value} that store only their nonzero entries (sparse_rref), so its
cost follows the nonzeros of the (mostly empty) systems rather than their
size.  The elimination is fraction-free, over primitive integer rows, with
one exact division per entry at the end; the result does not depend on
that.  The form is flattened to one coefficient system over a declared
universe of coordinates (coefficient_rows, one walk over the form's terms);
its kernel stays sparse into the second elimination, which brings it to
reduced row echelon form; rref and nullspace are dense adapters.  Kernel
vectors are constant rational combinations of coordinate directions,
computed exactly and certified without sampling (see _kernel).  Each
survivor is the linear form annihilating the kernel that is 1 at one free
column of the kernel's reduced row echelon form and 0 at the other free
columns, so coordinate kernels give back plain surviving coordinates (its
leading coefficient need not be 1).  The section sends the
coordinate at each free column to its survivor and every pivot coordinate
to 0; it is built once per reduction, and the reduced form and the
projected field (ReducedModel.s_action, which no verdict reads, built on
first read) are read along it: the form vanishes on the kernel and a field
that descends is constant along it, so every section gives the same result.
"""

from __future__ import annotations

import functools
import weakref
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    FIBER,
    VDIFF,
    GradedAlgebraError,
    Generator,
    Poly,
    Scalar,
    accumulate,
    partials,
    qdiv,
    rational,
)
from .cartan import VectorField, de_rham


class ReductionError(GradedAlgebraError):
    pass


def sparse_rref(rows: List[Dict[int, Scalar]], ncols: int
                ) -> Tuple[List[Dict[int, Scalar]], List[int]]:
    """Reduced row echelon form of sparse rows {column: value} holding no
    zero, which it consumes; returns (nonzero rows, pivot columns).

    The elimination is fraction-free: each row is scaled in place to a
    primitive integer vector (its entries read through rational, so a float
    is refused), cleared against a pivot row by an integer combination of
    the two and divided by its content; each pivot row is divided by its own
    pivot once at the end.  Each column keeps a superset of the rows with an
    entry there, so a column is found and cleared only in those rows, over
    the pivot row's entries only.  The pivot is the shortest candidate row,
    which keeps fill-in low; the result does not depend on it nor on the
    scaling (which keeps where entries are nonzero), since the reduced row
    echelon form of a matrix is unique.  Its entries are in the normal form
    of gpde.algebra: an int when integral, else a Fraction."""
    holders: Dict[int, set] = defaultdict(set)
    for i, row in enumerate(rows):
        d = 1
        for k, v in row.items():
            holders[k].add(i)
            if type(v) is not int:
                v = row[k] = rational(v)
                d = lcm(d, v.denominator)
        if d != 1:
            for k, v in row.items():
                row[k] = v.numerator * (d // v.denominator)
        _primitive(row)
    free = set(range(len(rows)))
    done: List[Dict[int, Scalar]] = []
    pivots = []
    for c in range(ncols):
        if not free:
            break
        hold = holders.get(c)
        if hold is None:
            continue
        best = size = None
        for i in hold:
            if i in free and c in rows[i]:
                n = len(rows[i])
                if best is None or n < size or (n == size and i < best):
                    best, size = i, n
        if best is None:
            continue
        free.discard(best)
        prow = rows[best]
        pv = prow.pop(c)
        # prow holds no column left of c, so fill-in lands right of it
        for i in hold:
            row = rows[i]
            f = row.pop(c, None)
            if f is None:
                continue
            g = gcd(pv, f)
            a, f = pv // g, f // g
            if a != 1:
                for k, v in row.items():
                    row[k] = a * v
            for k, v in prow.items():
                old = row.get(k)
                if old is None:
                    row[k] = -f * v
                    holders[k].add(i)
                else:
                    new = old - f * v
                    if new:
                        row[k] = new
                    else:
                        del row[k]
            _primitive(row)
        prow[c] = pv
        done.append(prow)
        pivots.append(c)
    for row, c in zip(done, pivots):
        pv = row[c]
        if pv != 1:
            for k, v in row.items():
                row[k] = qdiv(v, pv)
    return done, pivots


def _primitive(row: Dict[int, int]) -> None:
    """Divide an integer row by its content, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k, v in row.items():
            row[k] = v // g


def sparse_nullspace(red: List[Dict[int, Scalar]], pivots: List[int],
                     ncols: int) -> List[Dict[int, Scalar]]:
    """Basis of the right kernel of sparse reduced rows, one vector per free
    column, in column order."""
    taken = set(pivots)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in taken}
    for pc, row in zip(pivots, red):
        for k, v in row.items():
            if k != pc:
                basis[k][pc] = -v
    return list(basis.values())


def _sparse(rows: List[List[Scalar]]) -> List[Dict[int, Scalar]]:
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _dense(rows: List[Dict[int, Scalar]], ncols: int) -> List[List[Scalar]]:
    out = [[0] * ncols for _ in rows]
    for vec, row in zip(out, rows):
        for k, v in row.items():
            vec[k] = v
    return out


def rref(rows: List[List[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form of dense rows (see sparse_rref); returns
    (nonzero rows, pivot column indices)."""
    if not rows:
        return [], []
    red, pivots = sparse_rref(_sparse(rows), len(rows[0]))
    return _dense(red, len(rows[0])), pivots


def nullspace(rows: List[List[Scalar]], ncols: int) -> List[List[Scalar]]:
    """Basis of the right kernel of the row system, one vector per free column."""
    return _dense(sparse_nullspace(*sparse_rref(_sparse(rows), ncols), ncols), ncols)


def form_universe(form: Poly) -> List[Generator]:
    """The coordinates whose differentials occur in a form, in canonical
    order."""
    return sorted({form.space.coordinate_of(g) for mono in form.terms for g, _ in mono
                   if g.fdeg == 1}, key=lambda g: g._sort)


def coefficient_rows(form: Poly, universe: Sequence[Generator]) -> Dict[tuple, Dict[int, Scalar]]:
    """{monomial: {column A: its coefficient in the contraction of the form
    along the unit field of universe coordinate A}}; a constant vector is in
    the kernel of the form exactly when it annihilates every row.  The
    contraction removes a differential of u^A (horizontal or vertical), so
    one walk over the form's terms gives every column (algebra.partials)."""
    space = form.space
    index = {g: A for A, g in enumerate(universe)}
    column = {g: index[space.coordinate_of(g)] for g in form.generators()
              if g.fdeg and space.coordinate_of(g) in index}
    rows: Dict[tuple, Dict[int, Scalar]] = {}
    for A, terms in partials(form, column).items():
        for mono, c in terms.items():
            rows.setdefault(mono, {})[A] = c
    return rows


def _body(form: Poly, point: Optional[Dict[Generator, Scalar]] = None) -> Poly:
    """The form with its odd coordinates at zero and, when a point is given,
    every even coordinate at its value there (zero when not given);
    differentials are untouched."""
    subs = {g: Poly.scalar(0 if g.parity else point.get(g, 0))
            for g in form.generators() if g.fdeg == 0 and (g.parity or point is not None)}
    return form.substitute(subs) if subs else form


# two fixed rational points, by the index of each coordinate in canonical order
_WITNESSES = (lambda k: Fraction(2 * k + 3, 2), lambda k: Fraction(-5, 2 * k + 7))


def _kernel(body: Poly, universe: Sequence[Generator]) -> List[Dict[int, Scalar]]:
    """Kernel of a body over the universe as sparse constant vectors, one
    per free column of its coefficient system.

    A body taken at a point (_body with a point) gives the pointwise
    kernel.  Otherwise even coordinates stay symbolic; the rows of
    coefficient_rows are keyed by the full monomial, so the nullspace K0 is
    exactly the set of constant vectors annihilating the form identically.
    K0 lies in the kernel at every point, so a fixed point where the kernel
    has the dimension of K0 certifies K0 as the generic kernel.  A point can
    only support a refusal: when both fixed points show a larger kernel, the
    kernel distribution is taken to vary and the form is refused."""
    rows = coefficient_rows(body, universe)
    coords = sorted({g for mono in rows for g, _ in mono if g.fdeg == 0}, key=lambda g: g._sort)
    n = len(universe)
    kernel = sparse_nullspace(*sparse_rref(list(rows.values()), n), n)
    if coords and all(len(_kernel(_body(body, {g: w(k) for k, g in enumerate(coords)}), universe))
                      > len(kernel) for w in _WITNESSES):
        raise ReductionError("kernel distribution is not constant in these coordinates")
    return kernel


class ReducedModel:
    """Quotient by the kernel distribution.

    survivors[i] is a fresh coordinate generator representing the linear
    form survivor_forms[i] over the original universe, which is 1 at the
    i-th free column of kernel_vectors (the kernel's reduced row echelon
    form); section maps each universe coordinate to its survivor at a free
    column and to 0 at a pivot; form is the two-form that was reduced (the
    body of the input) and reduced_form the same form along the section.
    Given images (each survivor's image under the evolutionary field, over
    the universe), s_action is the projected field, built on first read."""

    def __init__(self, space, survivors, survivor_forms, kernel_vectors,
                 reduced_form, universe, form, section, images=None):
        self.space = space
        self.survivors = survivors
        self.survivor_forms = survivor_forms
        self.kernel_vectors = kernel_vectors
        self.reduced_form = reduced_form
        self.universe = universe
        self.form = form
        self.section = section
        self.images = images

    @functools.cached_property
    def s_action(self) -> Optional[Dict[Generator, Poly]]:
        """Each survivor image along the section.  None when no field was
        given."""
        if self.images is None:
            return None
        sec = self.section
        return {w: expr.substitute({h: sec[h] for h in expr.generators() if h in sec})
                for w, expr in self.images.items()}

    def split_residual(self) -> Poly:
        """reduced_form with each survivor differential dw_i replaced by the
        differential (vertical where dw_i is) of the linear form of w_i in
        survivor_equations, minus the form that was reduced: zero exactly
        when the quotient keeps all of the form."""
        lam = dict(self.survivor_equations)
        back = {dw: de_rham(lam[self.space.coordinate_of(dw)], vertical=dw.role == VDIFF)
                for dw in self.reduced_form.generators() if dw.fdeg}
        return self.reduced_form.substitute(back) - self.form

    @functools.cached_property
    def survivor_equations(self) -> List[Tuple[Generator, Poly]]:
        """Each survivor with the linear form it stands for, built on first
        read: split_residual and the verbs' survivor output read one list."""
        return [(g, Poly(self.space, {((self.universe[A], 1),): c for A, c in enumerate(lam) if c}))
                for g, lam in zip(self.survivors, self.survivor_forms)]


# space -> (generators read so far, first free survivor index)
_numbered = weakref.WeakKeyDictionary()


def _first_free_index(space) -> int:
    """One past the largest i such that a coordinate named w<i> exists.

    Survivors are interned in the form's space, so a later reduction in the
    same space must number its survivors on from there: reusing a name would
    either redeclare it with another ghost number or silently identify two
    unrelated survivors.  A space only gains generators, in order, so each
    call reads only those declared since the last call on the same space."""
    scanned, first = _numbered.get(space, (0, 0))
    gens = space.generators()
    for g in gens[scanned:]:
        digits = g.name[1:]
        if g.fdeg == 0 and g.name.startswith("w") and digits.isdecimal():
            first = max(first, int(digits) + 1)
    _numbered[space] = (len(gens), first)
    return first


def reduce_form(form: Poly, universe: Sequence[Generator],
                point: Optional[Dict[Generator, Scalar]] = None,
                s: Optional[VectorField] = None) -> ReducedModel:
    """Quotient the universe by the kernel of the form's body (see
    _kernel; with a point the reduction is pointwise).

    Refuses kernels that mix ghost degrees (no graded splitting exists).
    When an evolutionary field s is supplied, the projected action must be
    constant along the kernel, otherwise the reduction is refused.
    Survivors are new coordinates named w<i>, numbered on from any such
    names already in the space.
    """
    universe = list(universe)
    ncols = len(universe)
    space = form.space
    body = _body(form, point)
    kernel, pivots = sparse_rref(_kernel(body, universe), ncols)
    for vec in kernel:
        if len({universe[A].gh for A in vec}) > 1:
            raise ReductionError(
                "kernel mixes coordinates of different ghost degree; "
                "no graded splitting exists"
            )

    # the linear forms vanishing on the kernel, one per free column: 1 there
    # and otherwise nonzero only at the pivots of kernel rows holding that
    # column, so the check above makes each one ghost degree
    ann = sparse_nullspace(kernel, pivots, ncols)
    taken = set(pivots)
    free = [A for A in range(ncols) if A not in taken]
    first = _first_free_index(space)
    survivors = [space.coordinate(f"w{first + i}", FIBER, universe[A].gh)
                 for i, A in enumerate(free)]
    section = {g: Poly.zero() for g in universe}
    section.update((universe[A], Poly.gen(w)) for A, w in zip(free, survivors))

    # du to the differential of its image along the section
    dsub: Dict[Generator, Poly] = {}
    for g in sorted(body.generators(), key=lambda g: g._sort):
        if g.fdeg == 1:
            base = space.coordinate_of(g)
            if base not in section:
                raise ReductionError(f"form contains the differential of {base.name!r}, "
                                     "which is outside the universe")
            dsub[g] = de_rham(section[base], vertical=g.role == VDIFF)
    reduced = body.substitute(dsub)

    images = None
    if s is not None:
        images = {}
        for w, lam in zip(survivors, ann):
            terms: dict = {}
            for A, t in lam.items():
                image = s.coefficient(universe[A]).terms.items()
                accumulate(terms, image if t == 1 else ((m, t * c) for m, c in image))
            images[w] = Poly(space, terms)
        # constancy along every kernel direction k, sum_A k^A d_A image = 0,
        # from the partials along the coordinates the kernel moves
        moved = {universe[A]: A for vec in kernel for A in vec}
        for expr in images.values():
            by_column = partials(expr, moved)
            for vec in kernel if by_column else ():
                along: dict = {}
                for A in by_column.keys() & vec.keys():
                    k = vec[A]
                    accumulate(along, ((m, k * c) for m, c in by_column[A].items()))
                if along:
                    raise ReductionError(
                        "the evolutionary field does not descend: "
                        "survivor image varies along the kernel"
                    )

    return ReducedModel(space, survivors, _dense(ann, ncols),
                        _dense(kernel, ncols), reduced, universe, body, section, images)
