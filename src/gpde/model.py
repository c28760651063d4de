"""Gauge PDE models: graded fiber bundle data, homological vector field,
presymplectic potential, and the associated consistency checks."""

from __future__ import annotations

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
from .cartan import VectorField, cartan_formula, de_rham, interior
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


class Model:
    """A gauge PDE model over an odd tangent base of dimension n."""

    def __init__(self, space: Space, name: str, n: int, base_indices,
                 x: Dict[int, Generator], theta: Dict[int, Generator],
                 fibers: Dict[str, FiberFamily], q: VectorField,
                 chi: Optional[Poly], lies: Dict[str, LieAlgebraData],
                 tensors: Optional[BackgroundTensors], weak: bool):
        self.space = space
        self.name = name
        self.n = n
        self.base_indices = tuple(base_indices)
        self.x = dict(x)
        self.theta = dict(theta)
        self.fibers = dict(fibers)
        self.q = q
        self.chi = chi
        self.lies = dict(lies)
        self.tensors = tensors
        self.weak = weak
        self._omega: Optional[Poly] = None
        self._iq_omega: Optional[Poly] = None
        self._hamiltonian: Optional[Poly] = None

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

    def theta_volume(self) -> Poly:
        acc = Poly.scalar(1)
        for a in self.base_indices:
            acc = acc * Poly.gen(self.theta[a])
        return acc

    def omega(self) -> Poly:
        if self.chi is None:
            raise GradedAlgebraError(f"model {self.name!r} has no presymplectic potential")
        if self._omega is None:
            self._omega = de_rham(self.chi)
        return self._omega

    def iq_omega(self) -> Poly:
        """i_Q omega, cached: the contraction that q_invariance, the double
        contraction and the hamiltonian relation all read."""
        if self._iq_omega is None:
            self._iq_omega = interior(self.q, self.omega())
        return self._iq_omega

    # the ideal generated by (dx^a - theta^a) and dtheta^a -----------------

    def ideal_reduce(self, p: Poly) -> Poly:
        subs = {}
        for a in self.base_indices:
            subs[self.space.differential(self.x[a])] = Poly.gen(self.theta[a])
            subs[self.space.differential(self.theta[a])] = Poly.zero()
        return p.substitute(subs)

    def in_ideal(self, p) -> Tuple[bool, Poly]:
        residual = self.ideal_reduce(normal_form(p))
        return residual.is_zero(), residual


def build_base(space: Space, base_indices) -> Tuple[Dict[int, Generator], Dict[int, Generator]]:
    xs, ths = {}, {}
    for a in base_indices:
        xs[a] = space.coordinate("x", BASE_X, 0, base_index=(a,))
        ths[a] = space.coordinate("th", BASE_THETA, 1, base_index=(a,))
    return xs, ths


def check_potential(chi: Optional[Poly], n: int) -> None:
    """A presymplectic potential is absent, zero or a one-form of ghost n - 1."""
    if chi is None or chi.is_zero():
        return
    if chi.fdeg() != 1:
        raise DegreeError("presymplectic potential must be a one-form")
    if chi.gh() != n - 1:
        raise DegreeError(f"presymplectic potential must have ghost {n - 1}, got {chi.gh()}")


class ModelBuilder:
    """Incremental construction with validation at build time."""

    def __init__(self, name: str, n: int, space: Optional[Space] = None):
        self.name = name
        self.n = n
        self.space = space or Space(name)
        self.base_indices = tuple(range(n))
        self.x, self.theta = build_base(self.space, self.base_indices)
        self.fibers: Dict[str, FiberFamily] = {}
        self.lies: Dict[str, LieAlgebraData] = {}
        self.tensors: Optional[BackgroundTensors] = None
        self._q_rules: Dict[Generator, Poly] = {}
        self._chi: Optional[Poly] = None
        self._weak = False
        self.base_overrides: List[Generator] = []

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
        value = normal_form(value)
        if g in self._q_rules:
            raise GradedAlgebraError(f"q-rule for {g.name!r} declared twice")
        if g.role in (BASE_X, BASE_THETA):
            self.base_overrides.append(g)
        elif not value.is_zero():
            if value.fdeg() != 0:
                raise DegreeError(f"q-rule for {g.name!r} is not a function")
            if value.gh() != g.gh + 1:
                raise DegreeError(
                    f"q-rule for {g.name!r} must have ghost {g.gh + 1}, got {value.gh()}"
                )
        self._q_rules[g] = value
        return self

    def chi(self, value) -> "ModelBuilder":
        self._chi = normal_form(value)
        return self

    def weak(self, flag: bool = True) -> "ModelBuilder":
        self._weak = bool(flag)
        return self

    def build(self) -> Model:
        coeffs: Dict[Generator, Poly] = {}
        for a in self.base_indices:
            coeffs[self.x[a]] = Poly.gen(self.theta[a])
            coeffs[self.theta[a]] = Poly.zero()
        for fam in self.fibers.values():
            for g in fam.coords():
                coeffs[g] = Poly.zero()
        coeffs.update(self._q_rules)
        q = VectorField(self.space, 1, coeffs=coeffs, name="Q")
        check_potential(self._chi, self.n)
        return Model(self.space, self.name, self.n, self.base_indices,
                     self.x, self.theta, self.fibers, q, self._chi,
                     self.lies, self.tensors, self._weak)


# checks ------------------------------------------------------------------


def check_projection(m: Model) -> CheckResult:
    """Q must cover the canonical odd vector field of the base:
    Q(x^a) = theta^a and Q(theta^a) = 0."""
    bad = 0
    for a in m.base_indices:
        r1 = m.q.coefficient(m.x[a]) - Poly.gen(m.theta[a])
        r2 = m.q.coefficient(m.theta[a])
        bad += r1.num_terms() + r2.num_terms()
    return CheckResult("projection", bad == 0, residual_terms=bad)


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
    bad = sum(p.num_terms() for p in sq.values())
    nonzero = [g for g, p in sq.items() if not p.is_zero()]
    if m.weak:
        detail = "weak model, nilpotency not required"
        if nonzero:
            from .printing import gen_text
            detail += "; nonzero on " + ", ".join(sorted(gen_text(g) for g in nonzero))
        return CheckResult("nilpotency_pattern", True, residual_terms=bad, detail=detail)
    return CheckResult("nilpotency", bad == 0, residual_terms=bad)


def check_presymplectic(m: Model) -> List[CheckResult]:
    """The four compatibility conditions between Q and the presymplectic
    form, all as ideal-membership residuals.

    omega = d chi is closed by construction (d d = 0), so the closedness
    residual is read for the record and is empty.  L_Q omega comes from
    Cartan's formula L_Q = [i_Q, d] = i_Q d - d i_Q with both pieces at
    hand: d omega from the closedness check and the cached i_Q omega, which
    the double contraction contracts once more."""
    iq = m.iq_omega()
    results = []

    r_closed = de_rham(m.omega())
    results.append(CheckResult("closed", r_closed.is_zero(),
                               residual_terms=r_closed.num_terms()))

    lq = cartan_formula(m.q, interior(m.q, r_closed), de_rham(iq))
    ok, res = m.in_ideal(lq)
    results.append(CheckResult("q_invariance", ok, residual_terms=res.num_terms()))

    iiq = interior(m.q, iq)
    ok, res = m.in_ideal(iiq)
    results.append(CheckResult("double_contraction", ok, residual_terms=res.num_terms()))

    ilq = interior(m.q, lq)
    ok, res = m.in_ideal(ilq)
    results.append(CheckResult("hamiltonian_obstruction", ok, residual_terms=res.num_terms()))

    return results


def fiber_euler_field(m: Model) -> VectorField:
    coeffs = {g: Poly.gen(g) for g in m.fiber_coords()}
    return VectorField(m.space, 0, coeffs=coeffs, name="E")


def _fiber_degree(mono) -> int:
    return sum(e for g, e in mono if g.role == FIBER)


def solve_hamiltonian(m: Model) -> Poly:
    """Reconstruct the covariant Hamiltonian L from i_Q omega + dL in I,
    normalized so the fiber-independent part of L vanishes.

    alpha = i_Q omega is the model's cached contraction, the one
    check_presymplectic reads: omega = d chi is closed (d d = 0), so by
    Cartan's formula L_Q omega = -d alpha, and a hamiltonian, alpha + dL in
    I with d I inside I, puts it in I.  Solved once per model: a second call
    returns the same Poly.  Raises NotExactError when no such local function
    exists, on every call."""
    if m._hamiltonian is not None:
        return m._hamiltonian
    alpha = m.iq_omega()
    alphabar = m.ideal_reduce(alpha)
    vert = alphabar.form_component(1)
    f = interior(fiber_euler_field(m), vert)
    terms = {}
    for mono, c in f.terms.items():
        k = _fiber_degree(mono)
        if k == 0:
            raise NotExactError(
                "contraction has a fiber-independent vertical part; "
                "no local hamiltonian exists", f.filter(lambda t: not _fiber_degree(t)))
        terms[mono] = qdiv(c, -k)
    L = Poly(f.space, terms)
    ok, res = m.in_ideal(alpha + de_rham(L))
    if not ok:
        raise NotExactError(
            f"reduced contraction is not the fiber differential of a local "
            f"function ({res.num_terms()} residual terms)", res)
    m._hamiltonian = L
    return L


def check_solution(m: Model, L: Poly) -> List[CheckResult]:
    ok, res = m.in_ideal(m.iq_omega() + de_rham(L))
    out = [CheckResult("hamiltonian_relation", ok, residual_terms=res.num_terms())]
    ql = m.q.apply(L)
    out.append(CheckResult("q_annihilates_hamiltonian", ql.is_zero(),
                           residual_terms=ql.num_terms()))
    return out


def standard_checks(m: Model) -> List[CheckResult]:
    """The check battery behind the command line `check` verb."""
    out = [check_projection(m), check_nilpotency(m)]
    if m.chi is not None:
        out.extend(check_presymplectic(m))
    return out
