"""Gauge PDE models: graded fiber bundle data, homological vector field,
presymplectic potential, and the associated consistency checks.

The structure descends to submanifolds of the base: restricting to the
directions kept sets x^a, theta^a and their differentials of every other
direction to zero in Q and chi, and leaves the fibers as they are.

The compatibility conditions hold modulo the ideal I generated by
dx^a - theta^a and dtheta^a, and are read on the quotient: each residual
is reduced (dx^a -> theta^a, dtheta^a -> 0), never tested for membership.
They are posed for a Q that projects to the base (Q x^a = theta^a,
Q theta^a = 0), which keeps I stable under L_Q as d does; on any other Q
they are refused.
i_Q keeps only the dtheta^a part of I, so omega is contracted modulo the
dtheta^a and reduced modulo I after.
omega, i_Q omega and the hamiltonian are `derived`: each is built on its
first read and kept in the model's one store, `_derived`, under its
function's name; a build that raises stores nothing."""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import (
    BASE_THETA,
    BASE_X,
    FIBER,
    BackgroundTensors,
    DegreeError,
    Generator,
    GradedAlgebraError,
    LieAlgebraData,
    LieValued,
    Poly,
    Space,
    normal_form,
    qdiv,
    sort_sign,
)
from .cartan import VectorField, de_rham, interior
from .printing import gen_dsl, gen_text
from .report import CheckResult


class NotExactError(GradedAlgebraError):
    """The reduced contraction of Q with the presymplectic form is not the
    fiber differential of any local function; residual holds the terms
    that show it."""

    def __init__(self, message: str, residual: Poly):
        super().__init__(message)
        self.residual = residual


class FiberFamily:
    """A family of fiber coordinates sharing a name, ghost degree, base index
    slots and an optional internal Lie algebra."""

    def __init__(self, space: Space, name: str, gh: int, slots: int = 0,
                 antisym: bool = False, lie: Optional[LieAlgebraData] = None,
                 base_indices: Tuple[int, ...] = ()):
        if slots and not base_indices:
            raise GradedAlgebraError(f"family {name!r} has index slots but no base indices")
        if antisym and slots < 2:
            antisym = False
        self.space = space
        self.name = name
        self.gh = gh
        self.slots = slots
        self.antisym = antisym
        self.lie = lie
        self.base_indices = tuple(base_indices)
        if antisym:
            combos = list(itertools.combinations(self.base_indices, slots))
        else:
            combos = list(itertools.product(self.base_indices, repeat=slots))
        lie_range: Iterable = range(lie.dim) if lie else (None,)
        self._gens: Dict[Tuple[Tuple[int, ...], Optional[int]], Generator] = {}
        for idx in combos:
            for li in lie_range:
                g = space.coordinate(name, FIBER, gh, base_index=idx, lie_index=li)
                self._gens[(idx, li)] = g

    def coords(self) -> List[Generator]:
        return list(self._gens.values())

    def index_combos(self):
        return sorted({idx for idx, _ in self._gens})

    def gen(self, idx: Tuple[int, ...] = (), li: Optional[int] = None) -> Generator:
        return self._gens[(tuple(idx), li)]

    def resolve(self, idx: Tuple[int, ...], li: Optional[int] = None):
        """Look up a possibly unsorted index tuple.  Returns (sign, gen);
        sign 0 with gen None when an antisymmetric slot repeats an index."""
        idx = tuple(idx)
        if len(idx) != self.slots:
            raise GradedAlgebraError(
                f"family {self.name!r} takes {self.slots} base indices, got {len(idx)}"
            )
        if not self.antisym:
            return 1, self._gens[(idx, li)]
        sign, srt = sort_sign(idx)
        return sign, self._gens[(srt, li)] if sign else None

    def as_lie_valued(self, idx: Tuple[int, ...] = ()) -> LieValued:
        if self.lie is None:
            raise GradedAlgebraError(f"family {self.name!r} carries no lie algebra")
        return LieValued(self.lie, [Poly.gen(self._gens[(tuple(idx), i)])
                                    for i in range(self.lie.dim)])


def derived(build):
    """Build on first read, keep in owner._derived (see the module docstring)."""
    @functools.wraps(build)
    def read(owner):
        form = owner._derived.get(build.__name__)
        if form is None:
            form = owner._derived[build.__name__] = build(owner)
        return form
    return read


class Model:
    """A gauge PDE model over the odd tangent base of the directions
    base_indices, n of them, with the x^a and theta^a of build_base.  Q is
    assembled here from the canonical base part (base_q), zero on each fiber
    coordinate and q_rules, in that order; the rules and chi come validated."""

    def __init__(self, space: Space, name: str, base_indices,
                 fibers: Dict[str, FiberFamily], q_rules: Dict[Generator, Poly],
                 chi: Optional[Poly], lies: Dict[str, LieAlgebraData],
                 tensors: Optional[BackgroundTensors], weak: bool):
        self.space = space
        self.name = name
        self.base_indices = tuple(base_indices)
        self.n = len(self.base_indices)
        self.x, self.theta = build_base(space, self.base_indices)
        self.fibers = dict(fibers)
        coeffs = base_q(self.x, self.theta)
        coeffs.update((g, Poly.zero()) for g in self.fiber_coords())
        coeffs.update(q_rules)
        self.q = VectorField(space, 1, coeffs=coeffs, name="Q")
        self.chi = chi
        self.lies = dict(lies)
        self.tensors = tensors
        self.weak = weak
        self._derived: Dict[str, Poly] = {}  # see derived

    # structure access ---------------------------------------------------

    def fiber_coords(self) -> List[Generator]:
        out = []
        for fam in self.fibers.values():
            out.extend(fam.coords())
        return out

    def theta_levels(self, sizes: Iterable[int]):
        """The theta levels J: increasing tuples of base directions, of each
        size in sizes."""
        return (J for k in sizes for J in itertools.combinations(self.base_indices, k))

    def theta_expansion(self, sizes: Iterable[int], symbol) -> Poly:
        """sum_J theta^J symbol(J) over the theta levels of the given sizes.
        The theta factors come in canonical order and sort left of every
        symbol, so each term is one monomial with unit coefficient."""
        return Poly(self.space, {tuple((self.theta[j], 1) for j in J) + ((symbol(J), 1),): 1
                                 for J in self.theta_levels(sizes)})

    def require_directions(self, directions, what: str) -> None:
        """Refuse a direction outside the base, naming what it was for."""
        for a in directions:
            if a not in self.base_indices:
                raise GradedAlgebraError(f"no base direction {a} {what} (base directions: "
                                         f"{', '.join(map(str, self.base_indices)) or 'none'})")

    @derived
    def omega(self) -> Poly:
        if self.chi is None:
            raise GradedAlgebraError(f"model {self.name!r} has no presymplectic potential")
        return de_rham(self.chi)

    def require_projection(self) -> None:
        """Refuse a Q that does not project to the base (check_projection):
        the ideal I is Q-stable, and the jet prolongation s + D is the
        pulled-back Q, only for a Q that does."""
        if not check_projection(self).passed:
            raise GradedAlgebraError("Q does not project to the base")

    @derived
    def iq_omega(self) -> Poly:
        """i_Q omega modulo the dtheta^a, read by the presymplectic checks
        and the hamiltonian; refused unless Q projects to the base."""
        self.require_projection()
        return interior(self.q, self.drop_dtheta(self.omega()))

    # the ideal I generated by (dx^a - theta^a) and dtheta^a -----------------

    def drop_dtheta(self, p: Poly) -> Poly:
        """p modulo the dtheta^a alone, which d keeps, and i_Q if Q theta^a = 0."""
        return p.substitute({self.space.differential(t): 0 for t in self.theta.values()})

    def ideal_reduce(self, p: Poly) -> Poly:
        """p modulo I: dx^a -> theta^a, dtheta^a -> 0.  d keeps I."""
        return p.substitute({**{self.space.differential(t): 0 for t in self.theta.values()},
                             **{self.space.differential(x): Poly.gen(self.theta[a])
                                for a, x in self.x.items()}})


def base_q(x: Dict[int, Generator], theta: Dict[int, Generator]) -> Dict[Generator, Poly]:
    """The canonical odd vector field of the base: x^a -> theta^a, theta^a -> 0."""
    out = {}
    for a, g in x.items():
        out[g] = Poly.gen(theta[a])
        out[theta[a]] = Poly.zero()
    return out


def build_base(space: Space, base_indices) -> Tuple[Dict[int, Generator], Dict[int, Generator]]:
    """x^a and theta^a of each base direction, interned in space: every
    call returns the same generators."""
    xs, ths = {}, {}
    for a in base_indices:
        xs[a] = space.coordinate("x", BASE_X, 0, base_index=(a,))
        ths[a] = space.coordinate("th", BASE_THETA, 1, base_index=(a,))
    return xs, ths


class ModelBuilder:
    """Incremental construction of a Model.  Each call checks its rule when
    it is given: a Q-rule is on a coordinate, a function of ghost one above
    the coordinate's and repeated only with an equal value; chi is zero or a
    one-form of ghost n - 1; and a second chi, metric, lie algebra or fiber
    family raises.  build() only assembles the model."""

    def __init__(self, name: str, n: int):
        if n < 0:
            raise GradedAlgebraError("base dimension must be >= 0")
        self.name = name
        self.n = n
        self.space = Space(name)
        self.base_indices = tuple(range(n))
        self.x, self.theta = build_base(self.space, self.base_indices)
        self.fibers: Dict[str, FiberFamily] = {}
        self.lies: Dict[str, LieAlgebraData] = {}
        self.tensors: Optional[BackgroundTensors] = None
        self._q_rules: Dict[Generator, Poly] = {}
        self._chi: Optional[Poly] = None
        self._weak = False

    def metric(self, diag) -> "ModelBuilder":
        if self.tensors is not None:
            raise GradedAlgebraError("metric declared twice")
        bg = BackgroundTensors(diag)
        if bg.dim != self.n:
            raise GradedAlgebraError("metric dimension does not match the base")
        self.tensors = bg
        return self

    def lie(self, data: LieAlgebraData) -> LieAlgebraData:
        if data.name in self.lies:
            raise GradedAlgebraError(f"lie algebra {data.name!r} declared twice")
        self.lies[data.name] = data
        return data

    def fiber(self, name: str, gh: int, slots: int = 0, antisym: bool = False,
              lie: Optional[LieAlgebraData] = None) -> FiberFamily:
        if name in self.fibers:
            raise GradedAlgebraError(f"fiber family {name!r} declared twice")
        fam = FiberFamily(self.space, name, gh, slots=slots, antisym=antisym,
                          lie=lie, base_indices=self.base_indices)
        self.fibers[name] = fam
        return fam

    def q_rule(self, g: Generator, value) -> "ModelBuilder":
        return self.q_rules([(g, value)])

    def q_rules(self, rules) -> "ModelBuilder":
        """Store the (coordinate, value) rules of one statement, all or none:
        each is checked against the stored rules and the earlier ones."""
        staged: Dict[Generator, Poly] = {}
        for g, value in rules:
            if g.fdeg:
                raise DegreeError(f"q-rule for {gen_dsl(g)!r} is declared on a differential")
            value = normal_form(value)
            prev = staged.get(g, self._q_rules.get(g))
            if prev is not None:
                if prev == value:
                    continue
                raise GradedAlgebraError("conflicting Q-rules for the same coordinate")
            if not value.is_zero():
                if value.fdeg() != 0:
                    raise DegreeError(f"q-rule for {gen_dsl(g)!r} is not a function")
                if value.gh() != g.gh + 1:
                    raise DegreeError(
                        f"q-rule for {gen_dsl(g)!r} must have ghost {g.gh + 1}, got {value.gh()}"
                    )
            staged[g] = value
        self._q_rules.update(staged)
        return self

    def chi(self, value) -> "ModelBuilder":
        value = normal_form(value)
        if not value.is_zero():
            if value.fdeg() != 1:
                raise DegreeError("presymplectic potential must be a one-form")
            if value.gh() != self.n - 1:
                raise DegreeError(f"presymplectic potential must have ghost {self.n - 1}, "
                                  f"got {value.gh()}")
        if self._chi is not None:
            raise GradedAlgebraError("chi declared twice")
        self._chi = value
        return self

    def weak(self, flag: bool = True) -> "ModelBuilder":
        self._weak = bool(flag)
        return self

    def build(self) -> Model:
        return Model(self.space, self.name, self.base_indices, self.fibers,
                     self._q_rules, self._chi, self.lies, self.tensors, self._weak)


# restriction to a submanifold of the base ----------------------------------


def restrict_to_submanifold(m: Model, keep: Iterable[int]) -> Model:
    """Kill the base directions outside `keep`: their coordinates, odd
    partners and differentials are set to zero in the Q-structure and the
    presymplectic potential.  Fiber content is untouched."""
    keep = tuple(sorted(keep))
    m.require_directions(keep, "to keep")
    for a, b in zip(keep, keep[1:]):
        if a == b:
            raise GradedAlgebraError(f"base direction {a} to keep given twice")
    ksub0 = _killed_coordinates(m, keep)
    full = dict(ksub0)
    full.update({m.space.differential(g): Poly.zero() for g in ksub0})
    q_rules = {g: m.q.coefficient(g).substitute(ksub0) for g in m.fiber_coords()}
    chi = m.chi.substitute(full) if m.chi is not None else None
    tensors = m.tensors
    if tensors is not None:
        tensors = BackgroundTensors([tensors.diag[m.base_indices.index(a)] for a in keep])
    return Model(m.space, f"{m.name}_on_{''.join(map(str, keep))}", keep, m.fibers,
                 q_rules, chi, m.lies, tensors, m.weak)


def tangency_residuals(m: Model, keep: Iterable[int]) -> Dict[Generator, Poly]:
    """The Q-image of every killed coordinate, restricted to the surface;
    nonzero entries mean Q is not tangent to the restriction.  On a Q that
    projects to the base (Q x^a = theta^a, Q theta^a = 0) every entry is
    zero, theta^a being killed with x^a; boundary reduction refuses any
    other Q before it reads them, so its `tangency` line cannot FAIL."""
    ksub = _killed_coordinates(m, tuple(keep))
    return {g: m.q.coefficient(g).substitute(ksub) for g in ksub}


def _killed_coordinates(m: Model, keep: Tuple[int, ...]) -> Dict[Generator, Poly]:
    """x^a and theta^a of every base direction outside keep, each sent to
    zero: the restriction to the surface."""
    return {g: Poly.zero() for a in m.base_indices if a not in keep
            for g in (m.x[a], m.theta[a])}


# checks ------------------------------------------------------------------


def check_projection(m: Model) -> CheckResult:
    """Q must cover the canonical odd vector field of the base:
    Q(x^a) = theta^a and Q(theta^a) = 0."""
    return CheckResult.of("projection", *(m.q.coefficient(g) - q
                                          for g, q in base_q(m.x, m.theta).items()))


def q_square(m: Model) -> Dict[Generator, Poly]:
    """Q applied twice to every coordinate.  Zero everywhere iff the model
    is a strict (non-weak) gauge PDE."""
    out = {}
    for a in m.base_indices:
        out[m.x[a]] = m.q.apply(m.q.coefficient(m.x[a]))
        out[m.theta[a]] = m.q.apply(m.q.coefficient(m.theta[a]))
    for g in m.fiber_coords():
        out[g] = m.q.apply(m.q.coefficient(g))
    return out


def check_nilpotency(m: Model) -> CheckResult:
    sq = q_square(m)
    if not m.weak:
        return CheckResult.of("nilpotency", *sq.values())
    # PASS by definition on a weak model; the detail lists where Q^2 is nonzero
    nonzero = [g for g, p in sq.items() if not p.is_zero()]
    detail = "weak model, nilpotency not required"
    if nonzero:
        detail += "; nonzero on " + ", ".join(sorted(gen_text(g) for g in nonzero))
    return CheckResult("nilpotency_pattern", True,
                       residual_terms=sum(p.num_terms() for p in sq.values()), detail=detail)


def presymplectic_residuals(m: Model) -> Dict[str, Poly]:
    """The residuals modulo I of L_Q omega, i_Q i_Q omega and i_Q L_Q omega,
    by check name.  omega = d chi is closed (d d = 0), so Cartan's formula
    gives L_Q omega = -d i_Q omega, here modulo the dtheta^a."""
    iq = m.iq_omega()
    lq = -m.drop_dtheta(de_rham(iq))
    return {"q_invariance": m.ideal_reduce(lq),
            "double_contraction": m.ideal_reduce(interior(m.q, iq)),
            "hamiltonian_obstruction": m.ideal_reduce(interior(m.q, lq))}


def check_presymplectic(m: Model) -> List[CheckResult]:
    """The four compatibility conditions between Q and the presymplectic
    form.  omega = d chi is closed by construction, so the closedness
    residual is read for the record and is empty; the other three FAIL
    with the reason on a Q that does not project to the base."""
    results = [CheckResult.of("closed", de_rham(m.omega()))]
    try:
        residuals = presymplectic_residuals(m)
    except GradedAlgebraError as e:
        return results + [CheckResult.refused(name, e) for name in
                          ("q_invariance", "double_contraction", "hamiltonian_obstruction")]
    return results + [CheckResult.of(name, r) for name, r in residuals.items()]


def fiber_euler_field(m: Model) -> VectorField:
    coeffs = {g: Poly.gen(g) for g in m.fiber_coords()}
    return VectorField(m.space, 0, coeffs=coeffs, name="E")


def _fiber_degree(mono) -> int:
    return sum(e for g, e in mono if g.role == FIBER)


@derived
def solve_hamiltonian(m: Model) -> Poly:
    """Reconstruct the covariant Hamiltonian L from i_Q omega + dL in I,
    normalized so the fiber-independent part of L vanishes; then
    L_Q omega = -d i_Q omega is in I too.  Solved once per model: a second
    call returns the same Poly.  Raises NotExactError when no such local
    function exists, on every call."""
    alpha = m.ideal_reduce(m.iq_omega())
    f = interior(fiber_euler_field(m), alpha.form_component(1))
    # modulo I only fiber differentials are left, and i_E du = u: no term
    # of f is free of fiber coordinates
    L = Poly(f.space, {mono: qdiv(c, -_fiber_degree(mono)) for mono, c in f.terms.items()})
    res = alpha + m.ideal_reduce(de_rham(L))
    if not res.is_zero():
        raise NotExactError(
            f"reduced contraction is not the fiber differential of a local "
            f"function ({res.num_terms()} residual terms)", res)
    return L


def check_solution(m: Model, L: Poly) -> List[CheckResult]:
    return [CheckResult.of("hamiltonian_relation", m.ideal_reduce(m.iq_omega() + de_rham(L))),
            CheckResult.of("q_annihilates_hamiltonian", m.q.apply(L))]


def standard_checks(m: Model) -> List[CheckResult]:
    """The check battery behind the command line `check` verb."""
    out = [check_projection(m), check_nilpotency(m)]
    if m.chi is not None:
        out.extend(check_presymplectic(m))
    return out
