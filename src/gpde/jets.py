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
which no check reads, are Section.pull along the generic supersection,
apart from the level engine.  Jets are made as the pull-backs and seeds ask
for them, so the jet space is never truncated.

A section assigns to every bundle fiber coordinate u a theta-expansion
sum_J theta^J c_J in the jet coordinates; the generic supersection takes
c_J = psi_{|J}.  Pulling back along a section gives the covariance residual
(curvature), the gauge variation of the level jets, and the first-order
action density: the top level of the BV scalar pulled back along the
prolonged section, psi_{I|J} of u to D_I c_J.  The variational calculus on
jet expressions uses the total derivatives D_I.  Boundary reduction
restricts a model (model.restrict_to_submanifold), prolongs it and
quotients the top block of its vertical two-form (reduction.reduce_form).

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
theta^a passing d_v.  The jet model keeps i_s omega and D chi_v among its
level forms; the descent tower and the first master identity both read them.

Ownership: a JetModel owns its fields D, D_a and s and its one store of
level forms, `_derived`: each level form is built on its first read and
kept there under its method's name (model.derived), and a build that raises
stores nothing.  The fields' rules hold the JetRegistry (space, parent model,
jet coordinates and image levels) and the D_a table, never the JetModel,
and s reaches its own coefficients through a weak reference, so a request's
jet model and its level forms are freed by reference counting, with no
cycle for the collector to find.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

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
    Scalar,
    _sandwich,
    accumulate,
    derive,
    partials,
    qdiv,
    sort_sign,
    theta_split,
)
from .cartan import VectorField, d_vertical, de_rham, interior
from .model import (
    Model,
    derived,
    restrict_to_submanifold,
    solve_hamiltonian,
    tangency_residuals,
)
from .reduction import ReducedModel, form_universe, reduce_form
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


def vertical_lie(V: VectorField, p: Poly) -> Poly:
    """Lie derivative along an evolutionary-type field on vertical forms:
    coordinates move by V, vertical differentials by
    dv(c) -> (-1)^{parity(V)} dv(V(c)).  Rejects horizontal differentials."""
    space = p.space
    sign = -1 if V.parity else 1

    def img(g):
        if g.fdeg == 0:
            v = V.coefficient(g)
            return v if not v.is_zero() else None
        if g.role != VDIFF:
            raise DegreeError("vertical_lie acts on vertical forms only")
        return sign * d_vertical(V.coefficient(space.coordinate_of(g)))

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
        (0, None) on a repeated odd direction.  The image levels call it per
        level, so it leaves the directions to JetModel.jet and jet_of."""
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
            self.parent.require_directions(g.jet_I + g.jet_J, "for a jet coordinate")
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

    def d_rule(self, totals: Dict[int, VectorField], g: Generator):
        """D = theta^a D_a, read off the D_a table."""
        self._no_bundle_coordinate(g)
        return sum((Poly.gen(self.parent.theta[a]) * Da.coefficient(g)
                    for a, Da in totals.items()), Poly.zero())

    def total_rule(self, a: int, g: Generator):
        if g.role == JET:
            fib, I, J = self.jet_of(g)
            return Poly.gen(self.jet(fib, I + (a,), J)[1])
        if g.role == BASE_X:
            return Poly.scalar(1) if g.base_index[0] == a else None
        return self._no_bundle_coordinate(g)

    def s_rule(self, totals: Dict[int, VectorField], s: "weakref.ref[VectorField]", g: Generator):
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


class JetModel:
    """The super-jet prolongation of a model, with no truncation order.

    Jet coordinates are materialized on demand.  Pull-backs are built level
    by level, and the seeds of s per level, on demand.  The level forms the
    checks read (chi_v, its d_v, i_s of that, D chi_v, the BV scalar) are
    built on first read and kept in one store; no check builds omegabar().
    Its fields D, s and D_a (one per base direction) keep working when they
    outlive it (module docstring, Ownership)."""

    def __init__(self, parent: Model):
        parent.require_projection()
        self.registry = reg = JetRegistry(parent)
        self.parent = parent
        self.space = parent.space
        self._top = reg._top
        self._info = reg._info
        self._totals = {a: VectorField(self.space, 0, name=f"D_{a}",
                                       rule=functools.partial(reg.total_rule, a))
                        for a in self._top}
        self._derived: Dict[str, dict] = {}  # the level forms, see model.derived
        self.D = VectorField(self.space, 1, rule=functools.partial(reg.d_rule, self._totals),
                             name="D")
        self.s = VectorField(self.space, 1, name="s")
        self.s.rule = functools.partial(reg.s_rule, self._totals, weakref.ref(self.s))

    # jet coordinates (see JetRegistry) ------------------------------------

    def jet(self, fiber_gen: Generator, I=(), J=()):
        self.parent.require_directions((*I, *J), "for a jet coordinate")
        return self.registry.jet(fiber_gen, I, J)

    def jet_of(self, g: Generator):
        return self.registry.jet_of(g)

    def theta_expansion(self, fiber_gen: Generator) -> Poly:
        return self.parent.theta_expansion(range(self.parent.n + 1),
                                           lambda J: self.jet(fiber_gen, (), J)[1])

    def level_pullback(self, p: Poly, vertical=None, level=None) -> dict:
        return self.registry.level_pullback(p, vertical, level)

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
        directions a not in J only.  D_a acts as vertical_lie(D_a, .), which
        is D_a.apply on functions."""
        out: dict = {}
        for J, t in levels.items():
            p = Poly._adopt(self.space, t)
            for a in self._top:
                if a in J:
                    continue
                r = vertical_lie(self._totals[a], p).terms
                if not r:
                    continue
                sign, JA = _join(J + (a,))
                if len(J) & 1:
                    sign = -sign
                accumulate(out.setdefault(JA, {}), r.items() if sign > 0 else _negated(r).items())
        return {J: t for J, t in out.items() if t}

    # the two odd vector fields --------------------------------------------

    def total_derivative(self, a: int) -> VectorField:
        self.parent.require_directions((a,), "for a total derivative")
        return self._totals[a]

    # pulled-back structures -------------------------------------------------

    def _chi(self) -> Poly:
        if self.parent.chi is None:
            raise GradedAlgebraError("model has no presymplectic potential")
        return self.parent.chi

    def chibar(self) -> Poly:
        return generic_supersection(self).pull(self._chi())

    def omegabar(self) -> Poly:
        return de_rham(self.chibar())

    @derived
    def vertical_chibar_levels(self) -> dict:
        """The levels of the vertical pull-back of chi."""
        return self.level_pullback(self._chi(), vertical=True)

    @derived
    def vertical_omegabar_levels(self) -> dict:
        """The levels of d_v of the vertical pull-back of chi: the two-form
        the descent tower and the master identities read."""
        return self.levelwise(self.vertical_chibar_levels(), d_vertical, odd=True)

    @derived
    def i_s_omegabar_levels(self) -> dict:
        """The levels of i_s of the vertical two-form: i_s keeps the level
        with no sign.  The descent tower and the first master identity both
        read it."""
        return self.levelwise(self.vertical_omegabar_levels(),
                              functools.partial(interior, self.s), odd=False)

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

    @derived
    def total_chibar_levels(self) -> dict:
        """The levels of D of the vertical pull-back of chi."""
        return self.total_levels(self.vertical_chibar_levels())

    def vertical_top(self) -> Poly:
        """The theta-volume level of vertical_omegabar_levels(), the form
        whose kernel the reductions quotient by.  d_v passes each theta with a
        sign, so it is (-1)^n d_v of the volume level of the vertical
        pull-back of chi, and only that level is built."""
        top = d_vertical(Poly._adopt(self.space, self.level_pullback(self._chi(), True, self._top)))
        return -top if len(self._top) & 1 else top

    def lbar(self) -> Poly:
        return generic_supersection(self).pull(solve_hamiltonian(self.parent))

    @derived
    def bv_levels(self) -> dict:
        """The levels of the horizontal pull-back of chi + h."""
        return self.level_pullback(self._chi() + solve_hamiltonian(self.parent), HORIZONTAL)

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
    By Cartan's formula (module docstring) the residual is
    -d_v(i_s omega + D chi_v), level by level, from the two stored level
    forms; the hamiltonian is not needed."""
    return jm.levelwise(_level_sum(jm.i_s_omegabar_levels(), jm.total_chibar_levels()),
                        lambda p: -d_vertical(p), odd=True)


def check_descent(jm: JetModel) -> List[CheckResult]:
    """The descent tower: one verdict per theta degree k = 0, ..., n + 1 of
    descent_residuals.  A level J lists distinct base directions, so no
    residual has degree n + 1: descent_theta_{n+1} reads no residual and
    cannot FAIL; it is kept so that the tower has n + 2 lines."""
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


# sections and densities ------------------------------------------------------


class Section:
    """Theta-expansion of every bundle fiber coordinate in the jet
    coordinates of `jets`."""

    def __init__(self, jets: JetModel, mapping: Dict[Generator, Poly]):
        self.jets = jets
        self.mapping = dict(mapping)

    def __getitem__(self, g: Generator) -> Poly:
        return self.mapping[g]

    def pull(self, p: Poly) -> Poly:
        """p along the section by one substitution: u to sec[u], du to
        de_rham(sec[u])."""
        mapping = dict(self.mapping)
        for g in p.generators():
            if g.role == FIBER and g.fdeg:
                mapping[g] = de_rham(self.mapping[self.jets.space.coordinate_of(g)])
        return p.substitute(mapping)


def generic_supersection(jm: JetModel) -> Section:
    """u -> sum_J theta^J psi_{|J} over all levels: the full BV-BFV field
    content, ghost degrees of the level jets running from gh(u) downwards."""
    return Section(jm, {u: jm.theta_expansion(u) for u in jm.parent.fiber_coords()})


def generic_section(jm: JetModel) -> Section:
    """Ghost-zero field content only: each fiber coordinate keeps the levels
    matching its ghost degree (none when that is negative)."""
    m = jm.parent
    return Section(jm, {u: m.theta_expansion([u.gh] if u.gh >= 0 else [],
                                             lambda J: jm.jet(u, (), J)[1])
                        for u in m.fiber_coords()})


def covariance_residual(sec: Section) -> Dict[Generator, Poly]:
    """R(u) = section-pullback of Q(u) minus D of the section image.
    Vanishes exactly on solutions; the theta-bilinear part is the curvature."""
    jm = sec.jets
    return {u: sec.pull(jm.parent.q.coefficient(u)) - jm.D.apply(sec[u])
            for u in jm.parent.fiber_coords()}


def gauge_variation(sec: Section) -> Dict[Generator, Poly]:
    """BRST-type variation of every level jet psi_{|J} of u in sec[u], read
    off level J of the covariance residual.  Registers no generator beyond
    those of the residual."""
    out = {}
    for u, res in covariance_residual(sec).items():
        coeffs = theta_coefficients(res)
        for g in sec[u].generators():
            if g.role == JET and not g.jet_I and sec.jets.jet_of(g)[0] is u:
                c = coeffs.get(g.jet_J, Poly.zero())
                out[g] = -c if len(g.jet_J) & 1 else c
    return out


def action_density(sec: Section) -> Poly:
    """First-order action integrand: the theta-volume coefficient of the BV
    scalar of the section's jet model, pulled back along the prolonged
    section: psi_{I|J} of u goes to D_I c_J where sec[u] = sum_J theta^J c_J."""
    jm = sec.jets
    m = jm.parent
    if m.chi is None:
        raise GradedAlgebraError("model has no presymplectic potential")
    levels = {}     # the theta levels c_J of each image
    for u in m.fiber_coords():
        img = sec[u]
        if any(g.role == FIBER for g in img.generators()):
            raise GradedAlgebraError(f"bundle coordinate inside the section image of {u.name}")
        if img.terms and img.parity() != u.parity:
            raise DegreeError(f"substitution image for {u.name} has wrong parity")
        levels[u] = theta_coefficients(img)
    top = jm.bv_top()
    mapping = {}
    for g in top.generators():
        if g.role == JET:
            u, I, J = jm.jet_of(g)
            c = levels[u].get(J, Poly.zero())
            for a in I:
                c = jm.total_derivative(a).apply(c)
            mapping[g] = c
    return top.substitute(mapping)


def ghost_sector(p: Poly, gh: int) -> Poly:
    """Terms whose positive-ghost jet coordinates carry total degree gh.

    A BV-type density is homogeneous in the plain total, so the useful
    grading counts the ghost content only: the gh=0 sector of a master
    density is exactly the part free of ghosts and their momenta."""

    def pred(mono):
        return sum(g.gh * e for g, e in mono if g.role == JET and g.gh > 0) == gh

    return p.filter(pred)


# variational calculus ------------------------------------------------------


def euler_lagrange(jm: JetModel, dens: Poly) -> Dict[Generator, Poly]:
    """Variational derivative with respect to every level jet psi_{|J} whose
    prolongations psi_{I|J} occur: the sum over I of (-1)^{|I|} D_I (left
    partial w.r.t. psi_{I|J}).  Keys come in canonical generator order."""
    out: Dict[Generator, dict] = {}
    column = {g: g for g in dens.generators() if g.role == JET}
    for g, terms in partials(dens, column).items():
        u, I, J = jm.jet_of(g)
        partial = Poly._adopt(dens.space, terms)
        for a in I:
            partial = jm.total_derivative(a).apply(partial)
        accumulate(out.setdefault(jm.jet(u, (), J)[1], {}),
                   (-partial if len(I) & 1 else partial).terms.items())
    return {g: Poly(dens.space, out[g]) for g in sorted(out, key=lambda g: g._sort) if out[g]}


def el_proportional(jm: JetModel, a: Poly, b: Poly) -> Tuple[bool, Optional[Scalar]]:
    """Whether a and b have proportional variational content; returns the
    single scalar when it exists.  E is linear, so lambda is read off one
    term of E(b), and it is the scalar exactly when E(a - lambda*b) = 0."""
    ea, eb = euler_lagrange(jm, a), euler_lagrange(jm, b)
    if not eb:
        return not ea, None
    g, pb = next(iter(eb.items()))
    mono, cb = next(iter(pb.terms.items()))
    lam = qdiv(ea[g].coefficient(mono) if g in ea else 0, cb)
    return (True, lam) if not euler_lagrange(jm, a - lam * b) else (False, None)


# boundary reduction --------------------------------------------------------


class BoundaryReduction(NamedTuple):
    restricted: Model
    jets: JetModel
    reduced: ReducedModel
    checks: List[CheckResult]


def boundary_reduction(m: Model, kill: Iterable[int]) -> BoundaryReduction:
    """Restrict, prolong, verticalize, and quotient by the kernel of the top
    theta-degree block of the boundary two-form.  The projection is checked
    on m: restricting rebuilds the canonical base part of Q."""
    kill = tuple(kill)
    m.require_directions(kill, "to kill")
    m.require_projection()
    keep = [a for a in m.base_indices if a not in kill]
    checks = [CheckResult.of("tangency", *tangency_residuals(m, keep).values())]
    mr = restrict_to_submanifold(m, keep)
    jr = JetModel(mr)
    top = jr.vertical_top()
    if top.is_zero():
        raise GradedAlgebraError("boundary two-form has no top theta component")
    reduced = reduce_form(top, form_universe(top), s=jr.s)
    checks.append(CheckResult.of("kernel_split", reduced.split_residual(),
                                 detail=f"kernel dimension {len(reduced.kernel_vectors)}"))
    return BoundaryReduction(mr, jr, reduced, checks)
