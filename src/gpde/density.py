"""Sections, component fields, boundary restriction and action densities.

A section assigns to every bundle fiber coordinate a theta-expansion in
component field symbols phi(x); pulling the structure back along a section
turns the homological data into field-theory data: the covariance residual
(curvature), the gauge variation of the component fields, and the
first-order action density whose variational calculus lives here too: the
top theta level of the jet BV scalar i_D chibar + hbar pulled back along the
prolonged section, which sends psi_{I|J} of u to del_I c_J when
sec[u] = sum_J theta^J c_J.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import (
    BASE_X,
    FIBER,
    FIELD,
    JET,
    DegreeError,
    Generator,
    GradedAlgebraError,
    Poly,
    Scalar,
    Space,
    accumulate,
    derive,
    qdiv,
    sort_sign,
)
from .cartan import VectorField
from .jets import JetModel, theta_coefficients
from .model import Model
from .reduction import ReducedModel, form_universe, reduce_form
from .report import CheckResult


def field_symbol(space: Space, fiber_gen: Generator, J=(), deriv=(), declare: bool = True):
    """Component field of a bundle coordinate at theta-level J, carrying a
    symmetric multi-index of base derivatives.  Returns (sign, generator);
    sign 0 on a repeated theta level.  With declare=False a field not yet
    registered is not created and comes back as None."""
    sign, J = sort_sign(J)
    if not sign:
        return 0, None
    name = f"{fiber_gen.name}{len(J)}"
    g = space.coordinate(name, FIELD, fiber_gen.gh - len(J),
                         base_index=fiber_gen.base_index,
                         lie_index=fiber_gen.lie_index,
                         jet_J=J, deriv=tuple(sorted(deriv)), declare=declare)
    return sign, g


def shift_field(space: Space, g: Generator, a: int) -> Generator:
    return space.coordinate(g.name, FIELD, g.gh, base_index=g.base_index,
                            lie_index=g.lie_index, jet_J=g.jet_J,
                            deriv=tuple(sorted(g.deriv + (a,))))


def total_field_derivative(m: Model, a: int) -> VectorField:
    def rule(g, a=a):
        if g.role == FIELD:
            return Poly.gen(shift_field(m.space, g, a))
        if g.role == BASE_X:
            return Poly.scalar(1) if g.base_index[0] == a else None
        if g.role in (FIBER, JET):
            raise GradedAlgebraError(
                "bundle or jet coordinate inside a component-field expression"
            )
        return None

    return VectorField(m.space, 0, rule=rule, name=f"del_{a}")


def horizontal_field_differential(m: Model) -> VectorField:
    """d_X = theta^a del_a on component-field expressions."""

    def rule(g):
        if g.role == FIELD:
            return m.theta_expansion([1], lambda K: shift_field(m.space, g, K[0]))
        if g.role == BASE_X:
            return Poly.gen(m.theta[g.base_index[0]])
        if g.role in (FIBER, JET):
            raise GradedAlgebraError(
                "bundle or jet coordinate inside a component-field expression"
            )
        return None

    return VectorField(m.space, 1, rule=rule, name="d_X")


class Section:
    """Theta-expansion of every bundle fiber coordinate in field symbols."""

    def __init__(self, model: Model, mapping: Dict[Generator, Poly]):
        self.model = model
        self.mapping = dict(mapping)

    def __getitem__(self, g: Generator) -> Poly:
        return self.mapping[g]

    def pull(self, p: Poly) -> Poly:
        return p.substitute(self.mapping)


def generic_supersection(m: Model) -> Section:
    """All theta-levels: the full BV-BFV field content, ghost degrees of the
    component fields running from gh(u) downwards."""
    return Section(m, {u: m.theta_expansion(range(m.n + 1),
                                            lambda J: field_symbol(m.space, u, J)[1])
                       for u in m.fiber_coords()})


def generic_section(m: Model) -> Section:
    """Ghost-zero field content only: each fiber coordinate contributes the
    theta-level matching its ghost degree (nothing when that is negative)."""
    return Section(m, {u: m.theta_expansion([u.gh] if u.gh >= 0 else [],
                                            lambda J: field_symbol(m.space, u, J)[1])
                       for u in m.fiber_coords()})


def covariance_residual(m: Model, sec: Section) -> Dict[Generator, Poly]:
    """R(u) = section-pullback of Q(u) minus d_X of the section image.
    Vanishes exactly on solutions; the theta-bilinear part is the curvature."""
    dx = horizontal_field_differential(m)
    out = {}
    for u in m.fiber_coords():
        out[u] = sec.pull(m.q.coefficient(u)) - dx.apply(sec[u])
    return out


def gauge_variation(m: Model, sec: Section) -> Dict[Generator, Poly]:
    """BRST-type variation of every component field of the section, read off
    level by level from the covariance residual.  Registers no generator
    beyond those of the residual."""
    res = covariance_residual(m, sec)
    out = {}
    for u in m.fiber_coords():
        coeffs = theta_coefficients(res[u])
        present = sec[u].generators()
        for J in m.theta_levels(range(m.n + 1)):
            _, g = field_symbol(m.space, u, J, declare=False)
            if g in present:
                c = coeffs.get(J, Poly.zero())
                out[g] = -c if len(J) & 1 else c
    return out


def action_density(m: Model, sec: Section, jets: Optional[JetModel] = None) -> Poly:
    """First-order action integrand: the theta-volume coefficient of the BV
    scalar of `jets` (a jet model of m, built at order 1 when not given),
    pulled back along the prolonged section."""
    if m.chi is None:
        raise GradedAlgebraError("model has no presymplectic potential")
    top = (JetModel(m, 1) if jets is None else jets).bv_top()
    levels = {}     # the theta levels c_J of each image, by its jets' name and indices
    for u in m.fiber_coords():
        img = sec[u]
        if any(g.role in (FIBER, JET) for g in img.generators()):
            raise GradedAlgebraError(
                "bundle or jet coordinate inside a component-field expression")
        if img.terms and img.parity() != u.parity:
            raise DegreeError(f"substitution image for {u.name} has wrong parity")
        levels[u.name, u.base_index, u.lie_index] = theta_coefficients(img)
    partial = {a: total_field_derivative(m, a) for a in m.base_indices}
    mapping = {}
    for g in top.generators():
        if g.role == JET:
            c = levels[g.name, g.base_index, g.lie_index].get(g.jet_J, Poly.zero())
            for a in g.jet_I:
                c = partial[a].apply(c)
            mapping[g] = c
    return top.substitute(mapping)


def ghost_sector(p: Poly, gh: int) -> Poly:
    """Terms whose positive-ghost field symbols carry total degree gh.

    A BV-type density is homogeneous in the plain total, so the useful
    grading counts the ghost content only: the gh=0 sector of a master
    density is exactly the part free of ghosts and their momenta."""

    def pred(mono):
        return sum(g.gh * e for g, e in mono if g.role == FIELD and g.gh > 0) == gh

    return p.filter(pred)


# variational calculus ------------------------------------------------------


def _field_base_key(g: Generator):
    return (g.name, g.base_index, g.lie_index, g.jet_J)


def euler_lagrange(m: Model, dens: Poly) -> Dict[Generator, Poly]:
    """Variational derivative with respect to every undifferentiated field
    symbol present: sum over derivative multi-indices I of
    (-1)^{|I|} D_I (left-partial w.r.t. the I-shifted symbol).  Keys come
    in canonical generator order."""
    groups: Dict = {}
    for g in sorted(dens.generators(), key=lambda g: g._sort):
        if g.role == FIELD:
            groups.setdefault(_field_base_key(g), []).append(g)
    out = {}
    for key, gens in groups.items():
        sample = gens[0]
        base = m.space.coordinate(sample.name, FIELD, sample.gh, base_index=sample.base_index,
                                  lie_index=sample.lie_index, jet_J=sample.jet_J, deriv=())
        terms: dict = {}
        for g in gens:
            partial = derive(dens, g.parity, lambda h, g=g: 1 if h is g else None)
            for a in g.deriv:
                partial = total_field_derivative(m, a).apply(partial)
            if len(g.deriv) % 2:
                partial = -partial
            accumulate(terms, partial.terms.items())
        out[base] = Poly(dens.space, terms)
    return {g: v for g, v in out.items() if not v.is_zero()}


def el_equivalent(m: Model, a: Poly, b: Poly) -> bool:
    return not euler_lagrange(m, a - b)


def el_proportional(m: Model, a: Poly, b: Poly) -> Tuple[bool, Optional[Scalar]]:
    """Whether a and b have proportional variational content; returns the
    single scalar when it exists."""
    ea = euler_lagrange(m, a)
    eb = euler_lagrange(m, b)
    if not eb:
        return (not ea), None
    lam = None
    for g, pb in eb.items():
        pa = ea.get(g, Poly.zero())
        for mono, cb in pb.terms.items():
            ca = pa.coefficient(mono)
            cand = qdiv(ca, cb)
            if lam is None:
                lam = cand
            elif lam != cand:
                return False, None
    if lam is None:
        return (not ea), None
    keys = set(ea) | set(eb)
    for g in keys:
        pa = ea.get(g, Poly.zero())
        pb = eb.get(g, Poly.zero())
        if not (pa - lam * pb).is_zero():
            return False, None
    return True, lam


# boundary restriction ------------------------------------------------------


def restrict_to_submanifold(m: Model, keep: Iterable[int]) -> Model:
    """Kill the base directions outside `keep`: their coordinates, odd
    partners and differentials are set to zero in the Q-structure and the
    presymplectic potential.  Fiber content is untouched."""
    keep = tuple(sorted(keep))
    unknown = [a for a in keep if a not in m.base_indices]
    if unknown:
        raise GradedAlgebraError(f"cannot keep absent base directions {unknown}")
    ksub0 = _killed_coordinates(m, keep)
    full = dict(ksub0)
    full.update({m.space.differential(g): Poly.zero() for g in ksub0})

    coeffs: Dict[Generator, Poly] = {}
    for a in keep:
        coeffs[m.x[a]] = Poly.gen(m.theta[a])
        coeffs[m.theta[a]] = Poly.zero()
    for g in m.fiber_coords():
        coeffs[g] = m.q.coefficient(g).substitute(ksub0)
    q = VectorField(m.space, 1, coeffs=coeffs, name="Q|")
    chi = m.chi.substitute(full) if m.chi is not None else None
    tensors = m.tensors
    if tensors is not None:
        from .algebra import BackgroundTensors

        tensors = BackgroundTensors([tensors.diag[m.base_indices.index(a)] for a in keep])
    return Model(m.space, f"{m.name}_on_{''.join(map(str, keep))}",
                 len(keep), keep,
                 {a: m.x[a] for a in keep}, {a: m.theta[a] for a in keep},
                 m.fibers, q, chi, m.lies, tensors, m.weak)


def tangency_residuals(m: Model, keep: Iterable[int]) -> Dict[Generator, Poly]:
    """The Q-image of every killed coordinate, restricted to the surface;
    nonzero entries mean Q is not tangent to the restriction."""
    ksub = _killed_coordinates(m, tuple(keep))
    return {g: m.q.coefficient(g).substitute(ksub) for g in ksub}


def _killed_coordinates(m: Model, keep: Tuple[int, ...]) -> Dict[Generator, Poly]:
    """x^a and theta^a of every base direction outside keep, each sent to
    zero: the restriction to the surface."""
    return {g: Poly.zero() for a in m.base_indices if a not in keep
            for g in (m.x[a], m.theta[a])}


class BoundaryReduction:
    def __init__(self, restricted: Model, jets: JetModel, reduced: ReducedModel,
                 checks: List[CheckResult]):
        self.restricted = restricted
        self.jets = jets
        self.reduced = reduced
        self.checks = checks


def boundary_reduction(m: Model, kill: Iterable[int], order: int = 1) -> BoundaryReduction:
    """Restrict, prolong, verticalize, and quotient by the kernel of the top
    theta-degree block of the boundary two-form."""
    kill = set(kill)
    keep = [a for a in m.base_indices if a not in kill]
    checks = []
    tang = tangency_residuals(m, keep)
    bad = sum(p.num_terms() for p in tang.values())
    checks.append(CheckResult("tangency", bad == 0, residual_terms=bad))
    mr = restrict_to_submanifold(m, keep)
    jr = JetModel(mr, order)
    top = jr.vertical_top()
    if top.is_zero():
        raise GradedAlgebraError("boundary two-form has no top theta component")
    reduced = reduce_form(top, form_universe(top), s=jr.s)
    split = reduced.split_residual()
    checks.append(CheckResult("kernel_split", split.is_zero(), residual_terms=split.num_terms(),
                              detail=f"kernel dimension {len(reduced.kernel_vectors)}"))
    return BoundaryReduction(mr, jr, reduced, checks)
