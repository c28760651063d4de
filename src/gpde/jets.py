"""Super-jet prolongation of a gauge PDE model.

Bundle coordinates u^A acquire jet coordinates psi^A_{I|J}: I a symmetric
multi-index of base derivatives, J a strictly increasing tuple of odd base
directions (the theta-expansion level, lowering ghost degree by |J|).  The
expansion convention is u^A = sum_J theta^J psi^A_{|J} with unit
coefficients and theta factors on the left.  Pull-backs multiply images in
level by level, over disjoint pairs theta^J theta^K only, each image level
built alone when first read; asked for one target level, a pull-back forms
only the products that stay inside it.

Two odd vector fields act on jet space: the total derivative
D = theta^a D_a and the evolutionary differential s, seeded so that the
pulled-back Q-structure equals s + D on expansions and extended to deeper
jets by commuting with the total derivatives.  The seed of s on a level jet
psi_{|K} is built when s is first read there, from level K of Q exp u and
D exp u alone.  Two level pull-backs send u to its expansion and du to d_v or
D of it: the vertical one gives the two-form d_v(V chibar) the checks read
and, at the theta-volume level only, the top block the reductions quotient
by; the horizontal one reads its form modulo the contact ideal
(Model.ideal_reduce: dx^a to theta^a, dtheta^a to zero) and gives the BV
scalar i_D chibar + hbar out of chi + h.  chibar and omegabar = d(chibar),
which no check reads, are one substitution along the generic supersection,
apart from the level engine.  Jets are made as the pull-backs and seeds ask
for them, so the jet space is never truncated.

The forms the checks read stay in level form {J: terms}, standing for
sum_J theta^J * terms, as the pull-backs return them.  s, i_s, d_v and each
D_a keep the level; s and d_v pass theta^J with the sign (-1)^{|J|}.  D
raises it: D(theta^J T) = (-1)^{|J|} theta^J theta^a D_a T, and theta^J
theta^a vanishes for a in J, so D acts through the free directions only.
The descent residual of degree k and both master residuals are read off the
levels without assembling a form.

Lie derivatives of the closed two-form come from Cartan's formula.  On
vertical forms L_s = [i_s, d_v] = i_s d_v - d_v i_s, and each level of the
vertical two-form omega is d_v of a level of the vertical pull-back chi_v
of chi, so d_v omega = 0 by construction (d_v d_v = 0) and
L_s omega = -d_v i_s omega.  D_a moves jets and x^a only and d_v x^a = 0, so
D_a commutes with d_v and L_D omega = -d_v D chi_v, the minus from the odd
theta^a passing d_v.  The jet model caches i_s omega and D chi_v as levels;
the descent tower and the first master identity both read them.

Ownership: a JetModel owns its fields D, D_a and s.  Their rules hold the
JetRegistry (space, parent model, jet coordinates and image levels) and
the D_a table, never the JetModel, and s reaches its own coefficients
through a weak reference, so a request's jet model and its level caches
are freed by reference counting, with no cycle for the collector to find.
"""

from __future__ import annotations

import functools
import itertools
import weakref
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


# sort_sign of the theta levels J + K of a product theta^J theta^K
_join = functools.cache(sort_sign)

HORIZONTAL = 2  # the pull-backs' `vertical`: du goes to d_v (True) or D


@functools.cache
def _free_levels(target: Tuple[int, ...], J: Tuple[int, ...], last: bool) -> tuple:
    """The levels L with J + L inside target and disjoint: the subsets of
    target - J, or with last only target - J itself."""
    free = tuple(k for k in target if k not in J)
    if last:
        return (free,)
    return tuple(L for r in range(len(free) + 1) for L in itertools.combinations(free, r))


def _level_product(levels: dict, parity: int, image, target: tuple, last: bool) -> dict:
    """levels * image, levels {J: terms} standing for sum_J theta^J * terms
    and of the given parity, image(L) the terms of level L of the other
    factor (empty or None when it has none): theta^L moves left past a
    level-J rest of parity parity + |J|.  Only the pairs whose product level
    stays inside target are formed, and with last only those landing on it."""
    out: dict = {}
    for J, A in levels.items():
        for L in _free_levels(target, J, last):
            R = image(L)
            if not R:
                continue
            sign, JL = _join(J + L)
            if len(L) & (parity ^ len(J)) & 1:
                sign = -sign
            acc = out.setdefault(JL, {})
            for a, c in A.items():
                accumulate(acc, _sandwich(a, c if sign > 0 else -c, R))
    return out


def _level_sum(*parts: dict) -> dict:
    """The sum of level forms {J: terms}, empty levels dropped."""
    out: dict = {}
    for levels in parts:
        for J, t in levels.items():
            accumulate(out.setdefault(J, {}), t.items())
    return {J: t for J, t in out.items() if t}


def _negated(terms: dict) -> dict:
    return {m: -c for m, c in terms.items()}


def vertical_lie(V: VectorField, p: Poly, dv_images: Optional[dict] = None) -> Poly:
    """Lie derivative along an evolutionary-type field on vertical forms:
    coordinates move by V, vertical differentials by
    dv(c) -> (-1)^{parity(V)} dv(V(c)).  Rejects horizontal differentials.
    dv_images, when given, keeps the images of vertical differentials of V
    across calls."""
    space = p.space
    sign = -1 if V.parity else 1
    dv = {} if dv_images is None else dv_images

    def img(g):
        if g.fdeg == 0:
            v = V.coefficient(g)
            return v if not v.is_zero() else None
        if g.role != VDIFF:
            raise DegreeError("vertical_lie acts on vertical forms only")
        v = dv.get(g)
        if v is None:
            v = dv[g] = sign * d_vertical(V.coefficient(space.coordinate_of(g)))
        return v

    return derive(p, V.parity, img)


class JetRegistry:
    """The jet coordinates of one model and the image levels the pull-backs
    multiply in: all that the rules of D, each D_a and s read.  It holds no
    vector field, so the fields' rules hold it without a reference cycle."""

    def __init__(self, parent: Model):
        self.parent = parent
        self.space = parent.space
        self._top = tuple(sorted(parent.base_indices))
        self._info: Dict[Generator, Tuple[Generator, Tuple[int, ...], Tuple[int, ...]]] = {}
        self._images: Dict[tuple, dict] = {}  # (u, mode) -> {K: terms}

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

    def _level(self, u: Generator, mode, K: Tuple[int, ...]) -> dict:
        """Level K of the image of u (mode None), or of du under d_v (True)
        or D (HORIZONTAL), built when first asked for.  With
        exp u = sum_J theta^J psi_{|J} it is psi_{|K}; (-1)^{|K|} d_v psi_{|K};
        or sum (-1)^i psi_{a|K-a} over a = K[i]."""
        memo = self._images.setdefault((u, mode), {})
        t = memo.get(K)
        if t is not None:
            return t
        jet = self.jet
        if mode is None:
            t = {((jet(u, (), K)[1], 1),): 1}
        elif mode == HORIZONTAL:
            t = {((jet(u, (a,), K[:i] + K[i + 1:])[1], 1),): -1 if i & 1 else 1
                 for i, a in enumerate(K)}
        else:
            dv = self.space.differential(jet(u, (), K)[1], vertical=True)
            t = {((dv, 1),): -1 if len(K) & 1 else 1}
        memo[K] = t
        return t

    def _image_level(self, g: Generator, vertical):
        """The function L -> terms of level L of the image of a fiber
        coordinate, or of a fiber differential under the pull-back's mode."""
        if g.fdeg:
            return functools.partial(self._level, self.space.coordinate_of(g), vertical)
        return functools.partial(self._level, g, None)

    def level_pullback(self, p: Poly, vertical=None, level=None) -> dict:
        """The pull-back of p as {J: terms}, standing for sum_J theta^J * terms.
        A term of p is theta^J0 U M (theta_split), its mapped factors M moved
        right of the others U with substitute's sign; the images of M are
        multiplied in level by level over disjoint levels, a power e times.
        u goes to its expansion; du to d_v of it with vertical=True, where a
        base differential kills its term, or to D of it with HORIZONTAL,
        where p is first read modulo the contact ideal (dx^a -> theta^a,
        dtheta^a -> 0).  With no mode p holds no fiber differential.

        Given a level K, only the terms of level K are returned, and only the
        products that stay inside K are formed: the last mapped factor
        contributes just its level K - J."""
        if vertical == HORIZONTAL:
            p = self.parent.ideal_reduce(p)
        target = self._top if level is None else level
        out: dict = {}
        for J0, rest, _, c in theta_split(p):
            if level is not None and not all(j in level for j in J0):
                continue
            unmapped, mapped = [], []
            parity, odd = len(J0) & 1, 0    # of theta^J0 U, of M met so far
            for g, e in rest:
                if g.role == FIBER:
                    if g.fdeg and not vertical:
                        raise GradedAlgebraError(
                            "a fiber differential pulls back vertically or horizontally only")
                    mapped.extend([g] * e)
                    odd ^= g.parity
                elif vertical and g.fdeg and g.role in (BASE_X, BASE_THETA):
                    break
                else:
                    unmapped.append((g, e))
                    parity ^= g.parity & e
                    c = -c if g.parity & odd else c
            else:
                levels = {J0: {tuple(unmapped): c}}
                for i, g in enumerate(mapped):
                    levels = _level_product(levels, parity, self._image_level(g, vertical),
                                            target, level is not None and i == len(mapped) - 1)
                    parity ^= g.parity
                for J, t in levels.items():
                    if level is None or J == level:
                        accumulate(out.setdefault(J, {}), t.items())
        if level is not None:
            return out.get(level, {})
        return {J: t for J, t in out.items() if t}

    def seed(self, fiber_gen: Generator, K: Tuple[int, ...]) -> Optional[Poly]:
        """s(psi_{|K}), read off level K of Q exp u = s exp u + D exp u:
        [s exp u]_K = (-1)^{|K|} s(psi_{|K}), so it is (-1)^{|K|}([Q exp u]_K
        - [D exp u]_K), None when zero.  Only level K is built; s.coefficient
        memoises it per jet psi_{|K}."""
        t = self.level_pullback(self.parent.q.coefficient(fiber_gen), level=K)
        accumulate(t, ((m, -c) for m, c in self._level(fiber_gen, HORIZONTAL, K).items()))
        if not t:
            return None
        return Poly._adopt(self.space, {m: -c for m, c in t.items()} if len(K) & 1 else t)

    # the rules of D, D_a and s ----------------------------------------------

    def d_rule(self, g: Generator):
        if g.role == JET:
            fib, I, J = self.jet_of(g)
            return self.parent.theta_expansion([1], lambda K: self.jet(fib, I + K, J)[1])
        if g.role == BASE_X:
            return Poly.gen(self.parent.theta[g.base_index[0]])
        return self._no_bundle_coordinate(g)

    def total_rule(self, a: int, g: Generator):
        if g.role == JET:
            fib, I, J = self.jet_of(g)
            return Poly.gen(self.jet(fib, I + (a,), J)[1])
        if g.role == BASE_X:
            return Poly.scalar(1) if g.base_index[0] == a else None
        return self._no_bundle_coordinate(g)

    def s_rule(self, totals: "_TotalDerivatives", s: "weakref.ref[VectorField]", g: Generator):
        """s on a jet: its seed at a level jet, D_a of s of the jet below
        otherwise.  s is reached weakly, and is alive, since its rule runs
        only inside s.coefficient."""
        if g.role == JET:
            fib, I, J = self.jet_of(g)
            if I:
                _, lower = self.jet(fib, I[1:], J)
                return totals[I[0]].apply(s().coefficient(lower))
            return self.seed(fib, J)
        return self._no_bundle_coordinate(g)

    @staticmethod
    def _no_bundle_coordinate(g: Generator):
        """None, the rules' value off the jets and x, except on a bundle
        coordinate, which has no place in a jet-space expression."""
        if g.role == FIBER:
            raise GradedAlgebraError(
                f"bundle coordinate {g.name!r} inside a jet-space expression"
            )
        return None


class _TotalDerivatives(dict):
    """a -> D_a, each built on first use; its rule holds the registry only."""

    def __init__(self, registry: JetRegistry):
        super().__init__()
        self.registry = registry

    def __missing__(self, a: int) -> VectorField:
        td = self[a] = VectorField(self.registry.space, 0, name=f"D_{a}",
                                   rule=functools.partial(self.registry.total_rule, a))
        return td


class JetModel:
    """The super-jet prolongation of a model, with no truncation order.

    Jet coordinates are materialized on demand.  Pull-backs are built level
    by level, and the seeds of s per level, on demand; the forms the checks
    read are cached as levels (chi_v, its d_v, i_s of that and D chi_v), and
    no check builds omegabar().

    A JetModel owns its fields D, D_a and s; their rules hold the jet
    registry and the D_a table, never the JetModel, so a JetModel and its
    level caches are freed by reference counting, and a field that outlives
    it keeps working."""

    def __init__(self, parent: Model):
        parent.require_projection()
        self.registry = reg = JetRegistry(parent)
        self.parent = parent
        self.space = parent.space
        self._top = reg._top
        self._info = reg._info
        self._totals = _TotalDerivatives(reg)
        self._vertical_chibar: Optional[dict] = None
        self._vertical_omegabar: Optional[dict] = None
        self._i_s_omegabar: Optional[dict] = None
        self._total_chibar: Optional[dict] = None
        self._bv_levels: Optional[dict] = None
        self._dv_images: Dict[VectorField, dict] = {}
        self.D = VectorField(self.space, 1, rule=reg.d_rule, name="D")
        self.s = VectorField(self.space, 1, name="s")
        self.s.rule = functools.partial(reg.s_rule, self._totals, weakref.ref(self.s))

    # jet coordinates (see JetRegistry) ------------------------------------

    def jet(self, fiber_gen: Generator, I=(), J=()):
        return self.registry.jet(fiber_gen, I, J)

    def jet_of(self, g: Generator):
        return self.registry.jet_of(g)

    def theta_expansion(self, fiber_gen: Generator) -> Poly:
        return self.parent.theta_expansion(range(self.parent.n + 1),
                                           lambda J: self.jet(fiber_gen, (), J)[1])

    def level_pullback(self, p: Poly, vertical=None, level=None) -> dict:
        return self.registry.level_pullback(p, vertical, level)

    def lie(self, V: VectorField, p: Poly) -> Poly:
        """vertical_lie(V, p), the images of V on vertical differentials
        built once per jet model, not once per level."""
        return vertical_lie(V, p, self._dv_images.setdefault(V, {}))

    def levelwise(self, levels: dict, op, odd: bool) -> dict:
        """A level-preserving operator on a level form: op(terms) at each
        level, with the sign (-1)^{|J|} of passing theta^J when op is odd
        and kills theta (s, d_v), none when it is even (i_s)."""
        out = {}
        for J, t in levels.items():
            r = op(Poly._adopt(self.space, t)).terms
            if r:
                out[J] = _negated(r) if odd and len(J) & 1 else r
        return out

    def total_levels(self, levels: dict) -> dict:
        """D = theta^a D_a on a level form: level J moves to J + a as
        (-1)^{|J|} sort_sign(J + a) theta^{J+a} D_a(terms), over the free
        directions a not in J only.  D_a acts as lie(D_a, .), which is
        D_a.apply on functions."""
        out: dict = {}
        for J, t in levels.items():
            p = Poly._adopt(self.space, t)
            for a in self._top:
                if a in J:
                    continue
                r = self.lie(self.total_derivative(a), p).terms
                if not r:
                    continue
                sign, JA = _join(J + (a,))
                if len(J) & 1:
                    sign = -sign
                accumulate(out.setdefault(JA, {}), r.items() if sign > 0 else _negated(r).items())
        return {J: t for J, t in out.items() if t}

    # the two odd vector fields --------------------------------------------

    def total_derivative(self, a: int) -> VectorField:
        return self._totals[a]

    # pulled-back structures -------------------------------------------------

    def _chi(self) -> Poly:
        if self.parent.chi is None:
            raise GradedAlgebraError("model has no presymplectic potential")
        return self.parent.chi

    def _supersection_pullback(self, p: Poly) -> Poly:
        """p along the generic supersection by one substitution: u to its
        theta-expansion, du to the expansion's de_rham."""
        mapping = {}
        for g in p.generators():
            if g.role == FIBER:
                exp = self.theta_expansion(self.space.coordinate_of(g) if g.fdeg else g)
                mapping[g] = de_rham(exp) if g.fdeg else exp
        return p.substitute(mapping)

    def chibar(self) -> Poly:
        return self._supersection_pullback(self._chi())

    def omegabar(self) -> Poly:
        return de_rham(self.chibar())

    def vertical_chibar_levels(self) -> dict:
        """The levels of the vertical pull-back of chi, cached."""
        if self._vertical_chibar is None:
            self._vertical_chibar = self.level_pullback(self._chi(), vertical=True)
        return self._vertical_chibar

    def vertical_omegabar_levels(self) -> dict:
        """The levels of d_v of the vertical pull-back of chi, cached: the
        two-form the descent tower and the master identities read."""
        if self._vertical_omegabar is None:
            self._vertical_omegabar = self.levelwise(self.vertical_chibar_levels(),
                                                     d_vertical, odd=True)
        return self._vertical_omegabar

    def i_s_omegabar_levels(self) -> dict:
        """The levels of i_s of the vertical two-form, cached: i_s keeps the
        level with no sign.  The descent tower and the first master identity
        both read it."""
        if self._i_s_omegabar is None:
            self._i_s_omegabar = self.levelwise(self.vertical_omegabar_levels(),
                                               functools.partial(interior, self.s), odd=False)
        return self._i_s_omegabar

    def half_i_s_i_s_levels(self) -> dict:
        """The levels of 1/2 i_s i_s of the vertical two-form, each by one
        substitution dv(c) -> s(c): i_s is even and s(c) has the parity of
        dv(c), so on a k-form the substitution is i_s^k / k! (an even
        dv(c)^2 goes to s(c)^2)."""
        space, s = self.space, self.s

        def half(p):
            return p.substitute({g: s.coefficient(space.coordinate_of(g))
                                 for g in p.generators() if g.fdeg})

        return self.levelwise(self.vertical_omegabar_levels(), half, odd=False)

    def total_chibar_levels(self) -> dict:
        """The levels of D of the vertical pull-back of chi, cached."""
        if self._total_chibar is None:
            self._total_chibar = self.total_levels(self.vertical_chibar_levels())
        return self._total_chibar

    def vertical_top(self) -> Poly:
        """The theta-volume level of vertical_omegabar_levels(), the form
        whose kernel the reductions quotient by.  d_v passes each theta with a
        sign, so it is (-1)^n d_v of the volume level of the vertical
        pull-back of chi, and only that level is built."""
        top = d_vertical(Poly._adopt(self.space, self.level_pullback(self._chi(), True, self._top)))
        return -top if len(self._top) & 1 else top

    def lbar(self) -> Poly:
        return self._supersection_pullback(solve_hamiltonian(self.parent))

    def bv_levels(self) -> dict:
        """The levels of the horizontal pull-back of chi + h, cached."""
        if self._bv_levels is None:
            self._bv_levels = self.level_pullback(self._chi() + solve_hamiltonian(self.parent),
                                                  HORIZONTAL)
        return self._bv_levels

    def bv_top(self) -> Poly:
        """The theta-volume level of bv_levels(), the BV scalar
        i_D chibar + lbar."""
        return Poly(self.space, self.bv_levels().get(self._top, {}))

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

    def registry_stats(self) -> Dict[str, int]:
        """The number of jet coordinates made so far."""
        return {"jet_coordinates": len(self._info)}


# identity checks -----------------------------------------------------------


def descent_residuals(jm: JetModel) -> dict:
    """The levels {J: terms} of (L_s + L_D) omega on the vertical pulled-back
    two-form omega.  L_s keeps the theta level and L_D raises it by one, so
    the levels with |J| = k hold the descent residual of degree k,
    L_s omega_k + L_D omega_{k-1}: the two contributions must cancel.

    Both Lie derivatives come from Cartan's formula on a closed form.  On
    vertical forms L_s = [i_s, d_v] = i_s d_v - d_v i_s, and each level of
    omega is d_v of a level of the pulled-back chi, so d_v omega = 0 and
    L_s omega = -d_v i_s omega.  D_a commutes with d_v, so L_D omega =
    -d_v D chi (the minus from D passing d_v).  The residual is therefore
    -d_v(i_s omega + D chi), level by level, from the two cached level
    forms; the hamiltonian is not needed."""
    return jm.levelwise(_level_sum(jm.i_s_omegabar_levels(), jm.total_chibar_levels()),
                        lambda p: -d_vertical(p), odd=True)


def check_descent(jm: JetModel) -> List[CheckResult]:
    """The descent tower: one verdict per theta degree k of
    descent_residuals."""
    by_degree: Dict[int, list] = {}
    for J, t in descent_residuals(jm).items():
        by_degree.setdefault(len(J), []).append(t)
    return [CheckResult.of(f"descent_theta_{k}", *by_degree.get(k, ()))
            for k in range(jm.parent.n + 2)]


def master_residuals(jm: JetModel) -> Dict[str, dict]:
    """The levels of the two master identities tying the vertical two-form,
    the pulled-back potential and the BV scalar i_D chibar + lbar together,
    by check name: i_s keeps the level with no sign, d_v passes it with
    (-1)^{|J|}, and D moves level J to J + a for the free directions a.
    i_s kills base differentials, so i_s i_s of the vertical two-form is
    that of omegabar; its half is read by one substitution per level."""
    scalar = jm.bv_levels()
    r1 = _level_sum(jm.i_s_omegabar_levels(), jm.levelwise(scalar, d_vertical, odd=True),
                    jm.total_chibar_levels())
    r2 = _level_sum(jm.half_i_s_i_s_levels(),
                    {J: _negated(t) for J, t in jm.total_levels(scalar).items()})
    return {"master_vertical": r1, "master_scalar": r2}


def check_bv_identities(jm: JetModel) -> List[CheckResult]:
    """One verdict per master identity of master_residuals."""
    return [CheckResult.of(name, *levels.values())
            for name, levels in master_residuals(jm).items()]


def bv_lagrangian(jm: JetModel) -> Poly:
    """Top theta-degree component of the BV scalar, the D-contraction of the
    pulled-back potential plus the pulled-back hamiltonian."""
    return jm.parent.theta_volume() * jm.bv_top()
