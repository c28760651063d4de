"""Super-jet prolongation of a gauge PDE model.

Bundle coordinates u^A acquire jet coordinates psi^A_{I|J}: I a symmetric
multi-index of base derivatives, J a strictly increasing tuple of odd base
directions (the theta-expansion level, lowering ghost degree by |J|).  The
expansion convention is u^A = sum_J theta^J psi^A_{|J} with unit
coefficients and theta factors on the left.  Pull-backs multiply expansions
out level by level, over disjoint pairs theta^J theta^K only.

Two odd vector fields act on jet space: the total derivative
D = theta^a D_a and the evolutionary differential s, seeded so that the
pulled-back Q-structure equals s + D on expansions and extended to deeper
jets by commuting with the total derivatives.  Three pull-backs send u to
its expansion and du to d, d_v or D of it: the full one gives chibar (only
`prolong` builds omegabar = d(chibar)), the vertical one the two-form
d_v(V chibar) the checks read, and the horizontal one, with dx^a going to
theta^a, the BV scalar i_D chibar + hbar out of chi + h.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

from .algebra import (
    BASE_THETA,
    BASE_X,
    FIBER,
    JET,
    VDIFF,
    DegreeError,
    Generator,
    GradedAlgebraError,
    Poly,
    _sandwich,
    accumulate,
    derive,
    sort_sign,
    theta_split,
)
from .cartan import VectorField, d_vertical, de_rham, interior
from .model import Model, solve_hamiltonian
from .report import CheckResult


def theta_coefficients(p: Poly) -> Dict[Tuple[int, ...], Poly]:
    """Split a polynomial as sum_J theta^J c_J."""
    out: Dict[Tuple[int, ...], dict] = {}
    for J, rest, _, c in theta_split(p):
        out.setdefault(J, {})[rest] = c
    return {J: Poly(p.space, t) for J, t in out.items()}


def theta_top_coefficient(m: Model, p: Poly) -> Poly:
    """Coefficient of the full odd volume."""
    top = tuple(sorted(m.base_indices))
    return Poly(p.space, {rest: c for J, rest, _, c in theta_split(p) if J == top})


def theta_components(p: Poly) -> Dict[int, Poly]:
    """Split by total theta degree (odd base coordinates, not their
    differentials).  Summing the components reconstructs the input."""
    out: Dict[int, dict] = {}
    for J, _, mono, _ in theta_split(p):
        out.setdefault(len(J), {})[mono] = p.terms[mono]
    return {k: Poly(p.space, t) for k, t in out.items()}


# sort_sign of the theta levels J + K of a product theta^J theta^K
_join = functools.cache(sort_sign)

HORIZONTAL = 2  # the pull-backs' `vertical`: du goes to d (False), d_v (True) or D


def _level_product(levels: dict, parity: int, image: dict) -> dict:
    """levels * image, both {J: terms} standing for sum_J theta^J * terms,
    levels of the given parity: theta^K moves left past a level-J rest of
    parity parity + |J|."""
    out: dict = {}
    for K, R in image.items():
        for J, A in levels.items():
            sign, JK = _join(J + K)
            if not sign:
                continue
            if len(K) & (parity ^ len(J)) & 1:
                sign = -sign
            acc = out.setdefault(JK, {})
            for a, c in A.items():
                accumulate(acc, _sandwich(a, c if sign > 0 else -c, R))
    return out


def vertical_lie(V: VectorField, p: Poly) -> Poly:
    """Lie derivative along an evolutionary-type field on vertical forms:
    coordinates move by V, vertical differentials by
    dv(c) -> (-1)^{parity(V)} dv(V(c)).  Rejects horizontal differentials."""
    space = p.space
    if space is None:
        return Poly.zero()
    sign = -1 if V.parity else 1

    def img(g):
        if g.fdeg == 0:
            v = V.coefficient(g)
            return v if not v.is_zero() else None
        if g.role != VDIFF:
            raise DegreeError("vertical_lie acts on vertical forms only")
        base = space.coordinate_of(g)
        return sign * d_vertical(V.coefficient(base))

    return derive(p, V.parity, img)


class JetModel:
    """Jet prolongation of a model to a stated truncation order.

    Jet coordinates are materialized on demand; the truncation order only
    controls the excluded count in reports, never the values or verdicts.
    Pull-backs and the seeds of s are built level by level; the forms the
    checks read are cached, and no check builds omegabar()."""

    def __init__(self, parent: Model, order: int):
        if order < 0:
            raise GradedAlgebraError("truncation order must be nonnegative")
        self.parent = parent
        self.N = order
        self.space = parent.space
        self._info: Dict[Generator, Tuple[Generator, Tuple[int, ...], Tuple[int, ...]]] = {}
        self._images: Dict[Tuple[Generator, bool], dict] = {}
        self._seeds: Dict[Generator, Dict[Tuple[int, ...], Poly]] = {}
        self._totals: Dict[int, VectorField] = {}
        self._omegabar: Optional[Poly] = None
        self._vertical_chibar: Optional[Poly] = None
        self._vertical_omegabar: Optional[Poly] = None
        self._bv_levels: Optional[dict] = None
        self.D = VectorField(self.space, 1, rule=self._d_rule, name="D")
        self.s = VectorField(self.space, 1, rule=self._s_rule, name="s")

    # jet coordinates ------------------------------------------------------

    def jet(self, fiber_gen: Generator, I=(), J=()):
        """The jet coordinate psi_{I|J} of a bundle coordinate.  I is
        symmetrized silently; J antisymmetrizes with a sign, returning
        (0, None) on a repeated odd direction."""
        if fiber_gen.role != FIBER:
            raise GradedAlgebraError("jets are indexed by bundle fiber coordinates")
        I = tuple(sorted(I))
        sign, J = sort_sign(J)
        if not sign:
            return 0, None
        g = self.space.coordinate(fiber_gen.name, JET, fiber_gen.gh - len(J),
                                  base_index=fiber_gen.base_index,
                                  lie_index=fiber_gen.lie_index,
                                  jet_I=I, jet_J=J)
        self._info.setdefault(g, (fiber_gen, I, J))
        return sign, g

    def jet_of(self, g: Generator):
        """(u, I, J) of a jet coordinate psi^u_{I|J}; a jet that another jet
        model of the same space made is registered here on first sight."""
        if g not in self._info:
            u = self.space.coordinate(g.name, FIBER, g.gh + len(g.jet_J), base_index=g.base_index,
                                      lie_index=g.lie_index, declare=False)
            if u is None:
                raise GradedAlgebraError(f"jet coordinate {g.name!r} of no bundle coordinate")
            self.jet(u, g.jet_I, g.jet_J)
        return self._info[g]

    def theta_expansion(self, fiber_gen: Generator) -> Poly:
        return self.parent.theta_expansion(range(self.parent.n + 1),
                                           lambda J: self.jet(fiber_gen, (), J)[1])

    def _d_levels(self, fiber_gen: Generator) -> dict:
        """The levels of D exp u: [D exp u]_K = sum (-1)^i psi_{a|K-a} over
        a = K[i], since D = theta^a D_a and theta^a theta^{K-a} = (-1)^i theta^K."""
        return {K: {((self.jet(fiber_gen, (a,), K[:i] + K[i + 1:])[1], 1),): -1 if i & 1 else 1
                    for i, a in enumerate(K)}
                for K in self.parent.theta_levels(range(1, self.parent.n + 1))}

    def _image_levels(self, g: Generator, vertical) -> dict:
        """The levels of the image of a fiber coordinate, a fiber
        differential, or (horizontally) a dx^a, whose image is theta^a."""
        key = (g, vertical if g.fdeg else False)
        if key not in self._images:
            if g.role == BASE_X:
                levels = {g.base_index: {(): 1}}
            elif g.fdeg and vertical == HORIZONTAL:
                levels = self._d_levels(self.space.coordinate_of(g))
            else:
                img = self.theta_expansion(self.space.coordinate_of(g) if g.fdeg else g)
                img = de_rham(img, vertical) if g.fdeg else img
                levels = {J: c.terms for J, c in theta_coefficients(img).items()}
            self._images[key] = levels
        return self._images[key]

    def level_pullback(self, p: Poly, vertical=False) -> Dict[Tuple[int, ...], dict]:
        """The pull-back of p as {J: terms}, standing for sum_J theta^J * terms.
        A term of p is theta^J0 U M (theta_split), its mapped factors M moved
        right of the others U with substitute's sign; the images of M are
        multiplied in level by level, a power e times.  With vertical=True a
        base differential kills its term; with HORIZONTAL dx^a is mapped to
        theta^a and dtheta^a kills its term."""
        out: dict = {}
        for J0, rest, _, c in theta_split(p):
            unmapped, mapped = [], []
            parity, odd = len(J0) & 1, 0    # of theta^J0 U, of M met so far
            for g, e in rest:
                if g.role == FIBER or (vertical == HORIZONTAL and g.fdeg and g.role == BASE_X):
                    mapped.append((g, e))
                    odd ^= g.parity
                elif vertical and g.fdeg and g.role in (BASE_X, BASE_THETA):
                    break
                else:
                    unmapped.append((g, e))
                    parity ^= g.parity & e
                    c = -c if g.parity & odd else c
            else:
                levels = {J0: {tuple(unmapped): c}}
                for g, e in mapped:
                    for _ in range(e):
                        levels = _level_product(levels, parity, self._image_levels(g, vertical))
                        parity ^= g.parity
                for J, t in levels.items():
                    accumulate(out.setdefault(J, {}), t.items())
        return {J: t for J, t in out.items() if t}

    def pullback(self, p: Poly, vertical=False) -> Poly:
        """Substitute every bundle fiber coordinate (and its differential)
        by its theta-expansion (and the expansion's differential), level by
        level.  With vertical=True du goes to d_v of the expansion and base
        differentials to zero: a homomorphism that agrees with vertical_part
        of the full pull-back on every generator, so on every form.  With
        HORIZONTAL du goes to D of it, dx^a to theta^a, dtheta^a to zero."""
        return self._assemble(self.level_pullback(p, vertical))

    def _assemble(self, levels: dict) -> Poly:
        """sum_J theta^J * terms over levels {J: terms}."""
        theta = self.parent.theta
        out: dict = {}
        for J, terms in levels.items():
            accumulate(out, _sandwich(tuple((theta[j], 1) for j in J), 1, terms))
        return Poly._adopt(self.space, out)

    # the two odd vector fields --------------------------------------------

    def total_derivative(self, a: int) -> VectorField:
        td = self._totals.get(a)
        if td is None:

            def rule(g, a=a):
                if g.role == JET:
                    fib, I, J = self.jet_of(g)
                    _, shifted = self.jet(fib, I + (a,), J)
                    return Poly.gen(shifted)
                if g.role == BASE_X:
                    return Poly.scalar(1) if g.base_index[0] == a else None
                if g.role == FIBER:
                    raise GradedAlgebraError(
                        f"bundle coordinate {g.name!r} inside a jet-space expression"
                    )
                return None

            td = VectorField(self.space, 0, rule=rule, name=f"D_{a}")
            self._totals[a] = td
        return td

    def _d_rule(self, g: Generator):
        if g.role == JET:
            fib, I, J = self.jet_of(g)
            return self.parent.theta_expansion([1], lambda K: self.jet(fib, I + K, J)[1])
        if g.role == BASE_X:
            return Poly.gen(self.parent.theta[g.base_index[0]])
        if g.role == FIBER:
            raise GradedAlgebraError(
                f"bundle coordinate {g.name!r} inside a jet-space expression"
            )
        return None

    def _seed(self, fiber_gen: Generator) -> Dict[Tuple[int, ...], Poly]:
        """s on the level jets psi_{|K}, read off the levels of Q exp u =
        s exp u + D exp u: [s exp u]_K = (-1)^{|K|} s(psi_{|K}), and the
        levels of D exp u are _d_levels."""
        seeds = self._seeds.get(fiber_gen)
        if seeds is None:
            levels = self.level_pullback(self.parent.q.coefficient(fiber_gen))
            for K, t in self._d_levels(fiber_gen).items():
                accumulate(levels.setdefault(K, {}), ((g, -c) for g, c in t.items()))
            seeds = {K: Poly._adopt(self.space, {m: -c for m, c in t.items()}
                                    if len(K) & 1 else t)
                     for K, t in levels.items() if t}
            self._seeds[fiber_gen] = seeds
        return seeds

    def _s_rule(self, g: Generator):
        if g.role == JET:
            fib, I, J = self.jet_of(g)
            if I:
                _, lower = self.jet(fib, I[1:], J)
                return self.total_derivative(I[0]).apply(self.s.coefficient(lower))
            return self._seed(fib).get(J)
        if g.role == FIBER:
            raise GradedAlgebraError(
                f"bundle coordinate {g.name!r} inside a jet-space expression"
            )
        return None

    # pulled-back structures -------------------------------------------------

    def chibar(self) -> Poly:
        if self.parent.chi is None:
            raise GradedAlgebraError("parent model has no presymplectic potential")
        return self.pullback(self.parent.chi)

    def omegabar(self) -> Poly:
        if self._omegabar is None:
            self._omegabar = de_rham(self.chibar())
        return self._omegabar

    def vertical_chibar(self) -> Poly:
        """vertical_part(chibar()), built by the vertical pull-back."""
        if self._vertical_chibar is None:
            if self.parent.chi is None:
                raise GradedAlgebraError("parent model has no presymplectic potential")
            self._vertical_chibar = self.pullback(self.parent.chi, vertical=True)
        return self._vertical_chibar

    def vertical_omegabar(self) -> Poly:
        """The vertical part of omegabar, built as d_v(vertical_chibar()): the
        two-form the descent tower, the master identities and the reductions use."""
        if self._vertical_omegabar is None:
            self._vertical_omegabar = d_vertical(self.vertical_chibar())
        return self._vertical_omegabar

    def lbar(self) -> Poly:
        return self.pullback(solve_hamiltonian(self.parent))

    def _bv(self) -> dict:
        """The levels of the horizontal pull-back of chi + h, cached."""
        if self._bv_levels is None:
            if self.parent.chi is None:
                raise GradedAlgebraError("parent model has no presymplectic potential")
            self._bv_levels = self.level_pullback(
                self.parent.chi + solve_hamiltonian(self.parent), HORIZONTAL)
        return self._bv_levels

    def bv_scalar(self) -> Poly:
        """i_D chibar + lbar, built as the horizontal pull-back of chi + h:
        each term of chi has one differential and i_D only substitutes it."""
        return self._assemble(self._bv())

    def bv_top(self) -> Poly:
        """The coefficient of the theta volume in bv_scalar()."""
        return Poly(self.space, self._bv().get(tuple(sorted(self.parent.base_indices)), {}))

    def vertical_part(self, p: Poly) -> Poly:
        """Keep only fiber-direction differentials, renamed to vertical
        ones; base differentials are set to zero."""
        mapping = {}
        for g in p.generators():
            if g.fdeg != 1:
                continue
            if g.role in (BASE_X, BASE_THETA):
                mapping[g] = Poly.zero()
            elif g.role == JET:
                base = self.space.coordinate_of(g)
                mapping[g] = Poly.gen(self.space.differential(base, vertical=True))
            elif g.role == FIBER:
                raise GradedAlgebraError("bundle differential inside a jet-space expression")
        return p.substitute(mapping)

    def vertical_top(self) -> Poly:
        """The coefficient of the theta volume in the vertical pulled-back
        two-form, the form whose kernel the reductions quotient by."""
        return theta_top_coefficient(self.parent, self.vertical_omegabar())

    def truncation_split(self, p: Poly) -> Tuple[Poly, Poly]:
        """(retained, excluded): a term is excluded when it touches a jet
        coordinate of base-derivative order above the truncation order."""

        def retained(mono):
            for g, _ in mono:
                if g.role in (JET, VDIFF) and len(g.jet_I) > self.N:
                    return False
            return True

        keep = p.filter(retained)
        return keep, p - keep

    def registry_stats(self) -> Dict[str, int]:
        total = len(self._info)
        deep = sum(1 for g in self._info if len(g.jet_I) > self.N)
        return {"jet_coordinates": total, "beyond_order": deep}


def prolong(model: Model, order: int) -> JetModel:
    return JetModel(model, order)


# identity checks -----------------------------------------------------------


def _split_result(jm: JetModel, name: str, residual: Poly) -> CheckResult:
    """The verdict reads the whole residual; excluded_terms is reported only."""
    excluded = jm.truncation_split(residual)[1]
    return CheckResult(name, residual.is_zero(), residual_terms=residual.num_terms(),
                       excluded_terms=excluded.num_terms())


def check_descent(jm: JetModel) -> List[CheckResult]:
    """The descent tower: on each theta-degree k component of the vertical
    pulled-back form, L_s moves degree k to k and L_D degree k-1 to k; the
    two contributions must cancel.  So the residual of level k is the
    theta-degree k component of (L_s + L_D) of the whole form."""
    om = jm.vertical_omegabar()
    comps = theta_components(vertical_lie(jm.s, om) + vertical_lie(jm.D, om))
    return [_split_result(jm, f"descent_theta_{k}", comps.get(k, Poly.zero()))
            for k in range(jm.parent.n + 2)]


def check_bv_identities(jm: JetModel) -> List[CheckResult]:
    """Two master identities tying the vertical two-form, the pulled-back
    potential and the BV scalar i_D chibar + lbar together; i_s kills base
    differentials, so i_s i_s of the vertical two-form is that of omegabar."""
    scalar = jm.bv_scalar()
    i_s = interior(jm.s, jm.vertical_omegabar())
    r1 = i_s + d_vertical(scalar) + vertical_lie(jm.D, jm.vertical_chibar())
    r2 = interior(jm.s, i_s) / 2 - jm.D.apply(scalar)
    return [_split_result(jm, "master_vertical", r1),
            _split_result(jm, "master_scalar", r2)]


def bv_lagrangian(jm: JetModel) -> Poly:
    """Top theta-degree component of the BV scalar, the D-contraction of the
    pulled-back potential plus the pulled-back hamiltonian."""
    return jm.parent.theta_volume() * jm.bv_top()
