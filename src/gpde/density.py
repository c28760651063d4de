"""Sections, boundary restriction and action densities.

A section assigns to every bundle fiber coordinate u a theta-expansion
sum_J theta^J c_J in the jet coordinates of a JetModel; the generic
supersection takes c_J = psi_{|J}, the level jets of u.  Pulling the
structure back along a section turns the homological data into field-theory
data: the covariance residual (curvature), the gauge variation of the level
jets, and the first-order action density: the top theta level of the jet BV
scalar i_D chibar + hbar pulled back along the prolonged section, which
sends psi_{I|J} of u to D_I c_J.  The variational calculus on jet
expressions lives here too, with D_I the jet model's total derivatives.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import (
    FIBER,
    JET,
    BackgroundTensors,
    DegreeError,
    Generator,
    GradedAlgebraError,
    Poly,
    Scalar,
    accumulate,
    partials,
    qdiv,
)
from .jets import JetModel, theta_coefficients
from .model import Model
from .reduction import ReducedModel, form_universe, reduce_form
from .report import CheckResult


class Section:
    """Theta-expansion of every bundle fiber coordinate in the jet
    coordinates of `jets`."""

    def __init__(self, jets: JetModel, mapping: Dict[Generator, Poly]):
        self.jets = jets
        self.mapping = dict(mapping)

    def __getitem__(self, g: Generator) -> Poly:
        return self.mapping[g]

    def pull(self, p: Poly) -> Poly:
        return p.substitute(self.mapping)


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


# boundary restriction ------------------------------------------------------


def restrict_to_submanifold(m: Model, keep: Iterable[int]) -> Model:
    """Kill the base directions outside `keep`: their coordinates, odd
    partners and differentials are set to zero in the Q-structure and the
    presymplectic potential.  Fiber content is untouched."""
    keep = tuple(sorted(keep))
    m.require_directions(keep, "to keep")
    ksub0 = _killed_coordinates(m, keep)
    full = dict(ksub0)
    full.update({m.space.differential(g): Poly.zero() for g in ksub0})

    x, theta = {a: m.x[a] for a in keep}, {a: m.theta[a] for a in keep}
    q_rules = {g: m.q.coefficient(g).substitute(ksub0) for g in m.fiber_coords()}
    chi = m.chi.substitute(full) if m.chi is not None else None
    tensors = m.tensors
    if tensors is not None:
        tensors = BackgroundTensors([tensors.diag[m.base_indices.index(a)] for a in keep])
    return Model(m.space, f"{m.name}_on_{''.join(map(str, keep))}",
                 len(keep), keep, x, theta, m.fibers, q_rules, chi, m.lies, tensors, m.weak)


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
