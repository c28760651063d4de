import itertools

import pytest

from gpde.algebra import FIELD, JET, DegreeError, GradedAlgebraError, Poly, theta_split
from gpde.cartan import interior
from gpde.density import (
    Section,
    action_density,
    boundary_reduction,
    covariance_residual,
    el_equivalent,
    el_proportional,
    euler_lagrange,
    field_symbol,
    gauge_variation,
    generic_section,
    generic_supersection,
    ghost_sector,
    horizontal_field_differential,
    restrict_to_submanifold,
    tangency_residuals,
    total_field_derivative,
)
from gpde.jets import JetModel, theta_coefficients
from gpde.model import solve_hamiltonian
from gpde.parser import load_builtin

from conftest import build_ce, build_maxwell, build_toy
from properties import curved_model, reference_action_density


def fib(m, fam, idx=(), li=None):
    family = m.fibers[fam]
    if family.lie is not None and li is None:
        li = 0
    sign, u = family.resolve(tuple(idx), li)
    assert sign == 1
    return u


def fld(m, fam, idx=(), J=(), deriv=(), li=None):
    s2, g = field_symbol(m.space, fib(m, fam, idx, li), J, deriv)
    assert s2 == 1
    return Poly.gen(g)


def jets_to_fields(space, p):
    """Rename jet coordinates into component field symbols: the theta level
    carries over, the prolongation multi-index becomes a derivative index."""
    sub = {}
    for g in p.generators():
        if g.role == JET:
            f = space.coordinate(f"{g.name}{len(g.jet_J)}", FIELD, g.gh,
                                 base_index=g.base_index, lie_index=g.lie_index,
                                 jet_J=g.jet_J, deriv=g.jet_I)
            sub[g] = Poly.gen(f)
    return p.substitute(sub)


# sections ------------------------------------------------------------------


def test_generic_section_shapes(maxwell_model):
    m = maxwell_model
    sec = generic_section(m)
    C = fib(m, "C")
    assert sec[C].num_terms() == 4
    for g in sec[C].generators():
        if g.role == FIELD:
            assert g.gh == 0
    F01 = fib(m, "F", (0, 1))
    assert sec[F01].num_terms() == 1


def test_generic_supersection_levels(maxwell_model):
    m = maxwell_model
    sec = generic_supersection(m)
    C = fib(m, "C")
    assert sec[C].num_terms() == 16
    ghs = {g.gh for g in sec[C].generators() if g.role == FIELD}
    assert ghs == {1, 0, -1, -2, -3}


def test_covariance_residual_maxwell(maxwell_model):
    m = maxwell_model
    sec = generic_section(m)
    res = covariance_residual(m, sec)
    C = fib(m, "C")
    from gpde.jets import theta_coefficients

    coeffs = theta_coefficients(res[C])
    for a, b in itertools.combinations(range(4), 2):
        want = (fld(m, "F", (a, b)) + fld(m, "C", J=(a,), deriv=(b,))
                - fld(m, "C", J=(b,), deriv=(a,)))
        assert coeffs[(a, b)] == want
    # the field strength coordinate itself is transported by -d_X only
    F01 = fib(m, "F", (0, 1))
    dxf = horizontal_field_differential(m)
    assert res[F01] == -dxf.apply(sec[F01])


def test_flat_section_kills_residual(maxwell_model):
    m = maxwell_model
    base = generic_section(m)
    mapping = dict(base.mapping)
    for a, b in itertools.combinations(range(4), 2):
        F = fib(m, "F", (a, b))
        mapping[F] = fld(m, "C", J=(b,), deriv=(a,)) - fld(m, "C", J=(a,), deriv=(b,))
    sec = Section(m, mapping)
    C = fib(m, "C")
    assert covariance_residual(m, sec)[C].is_zero()


# gauge variation vs the jet evolutionary field -----------------------------


def test_gauge_variation_matches_jet_seeds_maxwell(maxwell_model):
    m = maxwell_model
    jm = JetModel(m, 1)
    var = gauge_variation(m, generic_supersection(m))
    for u in m.fiber_coords():
        for k in range(3):
            for J in itertools.combinations(m.base_indices, k):
                _, jg = jm.jet(u, (), J)
                _, fg = field_symbol(m.space, u, J)
                assert var[fg] == jets_to_fields(m.space, jm.s.coefficient(jg))


def test_gauge_variation_matches_jet_seeds_ym(ym_model):
    m = ym_model
    jm = JetModel(m, 1)
    var = gauge_variation(m, generic_supersection(m))
    for u in m.fiber_coords():
        for k in range(2):
            for J in itertools.combinations(m.base_indices, k):
                _, jg = jm.jet(u, (), J)
                _, fg = field_symbol(m.space, u, J)
                assert var[fg] == jets_to_fields(m.space, jm.s.coefficient(jg))


def test_gauge_variation_registers_no_fields():
    # the residual registers the derivative symbols the variation contains;
    # reading it off by theta level must add nothing, least of all the
    # level fields a ghost-zero section leaves out
    m = build_maxwell()
    sec = generic_section(m)
    res = covariance_residual(m, sec)
    before = len(m.space.generators())
    var = gauge_variation(m, sec)
    assert len(m.space.generators()) == before
    want = {}
    for u in m.fiber_coords():
        coeffs = theta_coefficients(res[u])
        for J, rest, _, _ in theta_split(sec[u]):
            ((g, _),) = rest
            want[g] = (-1) ** len(J) * coeffs.get(J, Poly.zero())
    assert var == want
    assert len(var) == 10


def test_gauge_variation_ce_formulas(ce_model):
    m = ce_model
    var = gauge_variation(m, generic_supersection(m))
    space = m.space
    # ghost: s c = -(1/2)[c, c], component 1 of su(2) reads -c2*c3
    _, c1 = field_symbol(space, fib(m, "C", li=0))
    assert var[c1] == -fld(m, "C", li=1) * fld(m, "C", li=2)
    # connection: s A_a = del_a c + [A_a, c]
    _, a01 = field_symbol(space, fib(m, "C", li=0), J=(0,))
    want = (fld(m, "C", li=0, deriv=(0,))
            + fld(m, "C", J=(0,), li=1) * fld(m, "C", li=2)
            - fld(m, "C", J=(0,), li=2) * fld(m, "C", li=1))
    assert var[a01] == want


def test_gauge_variation_squares_to_zero(ce_model):
    m = ce_model
    var = gauge_variation(m, generic_supersection(m))
    space = m.space

    def srule(g):
        if g.role != FIELD:
            return None
        base = space.coordinate(g.name, FIELD, g.gh, base_index=g.base_index,
                                lie_index=g.lie_index, jet_J=g.jet_J, deriv=())
        img = var.get(base)
        if img is None:
            return None
        for a in g.deriv:
            img = total_field_derivative(m, a).apply(img)
        return img

    from gpde.cartan import VectorField

    s = VectorField(space, 1, rule=srule, name="s_fields")
    for g, img in var.items():
        assert s.apply(img).is_zero(), f"s^2 fails on {g.name}"


# variational calculus ------------------------------------------------------


def test_euler_lagrange_second_order(maxwell_model):
    m = maxwell_model
    a0 = fld(m, "C", J=(0,))
    dens = fld(m, "C", J=(0,), deriv=(1,)) * fld(m, "C", J=(0,), deriv=(1,)) / 2
    el = euler_lagrange(m, dens)
    key = [g for g in el if g.name == "C1"][0]
    assert el[key] == -fld(m, "C", J=(0,), deriv=(1, 1))
    assert key.jet_J == (0,) and key.deriv == ()
    assert a0.generators()


def test_euler_lagrange_odd_field(maxwell_model):
    m = maxwell_model
    c = fld(m, "C")
    dens = c * fld(m, "C", deriv=(0,))
    el = euler_lagrange(m, dens)
    key = [g for g in el][0]
    assert el[key] == 2 * fld(m, "C", deriv=(0,))


def test_euler_lagrange_ignores_total_derivatives(maxwell_model):
    m = maxwell_model
    base = fld(m, "C", J=(1,)) * fld(m, "C", J=(1,), deriv=(2,))
    currents = [
        fld(m, "C", J=(0,)) * fld(m, "C", J=(0,), deriv=(1,)),
        fld(m, "C") * fld(m, "C", J=(2,)) * fld(m, "C", J=(2,), deriv=(0,)),
        fld(m, "F", (0, 1)) * fld(m, "C", deriv=(3,)),
    ]
    for j in currents:
        for a in (0, 1, 3):
            shifted = base + total_field_derivative(m, a).apply(j)
            assert el_equivalent(m, base, shifted)
            assert not el_equivalent(m, base + fld(m, "C", J=(1,)), base)


def test_el_proportional(maxwell_model):
    m = maxwell_model
    a = fld(m, "C", J=(0,)) * fld(m, "C", J=(0,), deriv=(1,)) * fld(m, "F", (2, 3))
    ok, lam = el_proportional(m, 3 * a, a)
    assert ok and lam == 3
    f01 = fld(m, "F", (0, 1))
    ok, _ = el_proportional(m, a, a + f01 * f01)
    assert not ok


def test_euler_lagrange_keys_in_canonical_order(maxwell_model):
    """Generators hash by identity, so a set of them iterates in an order
    that depends on memory addresses; the keys must not."""
    m = maxwell_model
    dens = action_density(m, generic_section(m))
    dens = dens + fld(m, "F", (2, 3)) * fld(m, "C", J=(0,), deriv=(1,)) \
        + fld(m, "C", J=(3,)) * fld(m, "F", (0, 1), deriv=(2,))
    keys = list(euler_lagrange(m, dens))
    assert len(keys) >= 3
    assert keys == sorted(keys, key=lambda g: g._sort)


# action densities ----------------------------------------------------------


def test_action_density_dim0():
    m = build_toy()
    sec = generic_section(m)
    dens = action_density(m, sec)
    u0 = fld(m, "u")
    assert dens == -u0 * u0 * u0 / 3
    el = euler_lagrange(m, dens)
    assert list(el.values()) == [-u0 * u0]


def test_action_density_maxwell_first_order():
    m = build_maxwell()
    sec = generic_section(m)
    dens = action_density(m, sec)
    assert not dens.is_zero()
    assert ghost_sector(dens, 0) == dens
    names = {g.name for g in dens.generators() if g.role == FIELD}
    assert names == {"C1", "F0"}
    # quadratic field-strength block and the mixing block both present
    sq = dens.filter(lambda mono: sum(e for g, e in mono if g.name == "F0") == 2)
    mix = dens.filter(lambda mono: any(g.name == "C1" for g, e in mono))
    assert not sq.is_zero() and not mix.is_zero()
    assert (sq + mix) == dens


# boundary restriction ------------------------------------------------------


def test_restriction_is_tangent(maxwell_model):
    m = maxwell_model
    res = tangency_residuals(m, (1, 2, 3))
    assert all(p.is_zero() for p in res.values())


def test_restricted_potential_keeps_only_time_blocks(maxwell_model):
    mr = restrict_to_submanifold(maxwell_model, (1, 2, 3))
    assert mr.n == 3 and mr.base_indices == (1, 2, 3)
    for mono in mr.chi.terms:
        fibers = [g for g, e in mono if g.fdeg == 0 and g.name == "F"]
        assert len(fibers) == 1
        assert 0 in fibers[0].base_index


def test_restriction_rejects_unknown_directions(maxwell_model):
    with pytest.raises(GradedAlgebraError):
        restrict_to_submanifold(maxwell_model, (1, 2, 7))


def test_boundary_reduction_maxwell(maxwell_model):
    br = boundary_reduction(maxwell_model, kill=(0,), order=1)
    assert all(c.passed for c in br.checks)
    red = br.reduced
    assert len(red.survivors) == 8
    # diagonal momentum levels F_{0i|(i)} minus their trace span the kernel
    assert len(red.kernel_vectors) == 2
    cols = red.universe
    # spatial ghost/connection levels of C survive untouched
    unit_rows = [tuple(v) for v in red.survivor_forms if sum(1 for c in v if c) == 1]
    c_cols = [k for k, g in enumerate(cols) if g.name == "C"]
    f0_cols = [k for k, g in enumerate(cols) if g.name == "F" and not g.jet_J]
    for k in c_cols + f0_cols:
        want = tuple(1 if i == k else 0 for i in range(len(cols)))
        assert want in unit_rows
    # the remaining survivor is the diagonal momentum trace sum_i F_{0i|(i)}
    trace_rows = [v for v in red.survivor_forms if sum(1 for c in v if c) > 1]
    assert len(trace_rows) == 1
    hit = [cols[k] for k, c in enumerate(trace_rows[0]) if c]
    assert all(c == 1 for c in trace_rows[0] if c)
    assert {(g.base_index, g.jet_J) for g in hit} == {((0, i), (i,)) for i in (1, 2, 3)}
    # kernel never touches the ghost tower
    for v in red.kernel_vectors:
        for k in c_cols:
            assert v[k] == 0
    assert len(red.reduced_form.terms) == 4


def test_boundary_bfv_integrand_maxwell(maxwell_model):
    br = boundary_reduction(maxwell_model, kill=(0,), order=1)
    mr = br.restricted
    dens = action_density(mr, generic_supersection(mr))
    gh1 = ghost_sector(dens, 1)
    assert not gh1.is_zero()
    # abelian charge: momentum times the gradient of the ghost field
    names = {g.name for g in gh1.generators() if g.role == FIELD}
    assert "C0" in names and "F0" in names


# action density against field substitution ----------------------------------


def _oracle_model(name):
    if name in ("toy_dim0", "ce_aksz", "maxwell_weak", "ym_weak"):
        return load_builtin(name)
    if name == "restricted":
        return restrict_to_submanifold(load_builtin("ym_weak"), (1, 2, 3))
    seed, n = name.split("_")[1:]      # "curved_<seed>_<n>"
    return curved_model(int(seed), int(n))


# seeds 1 and 2 give su(2) and u(1) at base dimensions 2 and 3
ORACLE_MODELS = ["toy_dim0", "ce_aksz", "maxwell_weak", "ym_weak", "restricted",
                 "curved_1_2", "curved_1_3", "curved_2_2", "curved_2_3"]


@pytest.fixture(scope="module", params=ORACLE_MODELS)
def oracle_model(request):
    return _oracle_model(request.param)


@pytest.mark.parametrize("make", [generic_supersection, generic_section])
def test_action_density_matches_field_substitution(oracle_model, make):
    m = oracle_model
    sec = make(m)
    if m.chi is None:
        for density in (action_density, reference_action_density):
            with pytest.raises(GradedAlgebraError, match="no presymplectic potential"):
                density(m, sec)
        return
    got = action_density(m, sec)
    # the ghost-zero section of the restricted model has no top level
    assert got.is_zero() == (make is generic_section and m.name.endswith("_on_123"))
    assert got == reference_action_density(m, sec)
    # a jet model whose BV scalar the master identities already built
    jm = JetModel(m, 1)
    jm.bv_scalar()
    assert action_density(m, sec, jm) == got


def test_bv_scalar_is_the_D_contraction_plus_lbar(oracle_model):
    jm = JetModel(oracle_model, 1)
    if oracle_model.chi is None:
        with pytest.raises(GradedAlgebraError, match="no presymplectic potential"):
            jm.bv_scalar()
        return
    got = jm.bv_scalar()
    assert not got.is_zero()
    assert got == interior(jm.D, jm.chibar()) + jm.lbar()


def flat_section_with_theta_levels(m):
    """The flat Maxwell section of test_flat_section_kills_residual plus
    theta^0 theta^1 del_3 phi_{C|01} in the image of C."""
    mapping = dict(generic_section(m).mapping)
    for a, b in itertools.combinations(range(4), 2):
        mapping[fib(m, "F", (a, b))] = (fld(m, "C", J=(b,), deriv=(a,))
                                        - fld(m, "C", J=(a,), deriv=(b,)))
    th0, th1 = Poly.gen(m.theta[0]), Poly.gen(m.theta[1])
    C = fib(m, "C")
    mapping[C] = mapping[C] + th0 * th1 * fld(m, "C", J=(0, 1), deriv=(3,))
    return Section(m, mapping)


def test_action_density_of_images_with_theta_and_derivatives(maxwell_model):
    m = maxwell_model
    sec = flat_section_with_theta_levels(m)
    got = action_density(m, sec)
    # the curvature is the derivative of the connection's level fields
    assert {(g.name, len(g.deriv)) for g in got.generators()} == {("C1", 1)}
    assert got == reference_action_density(m, sec)


def test_action_density_rejects_inhomogeneous_or_wrong_parity_images(maxwell_model):
    m = maxwell_model
    C = fib(m, "C")
    bad = {
        "not parity-homogeneous": Poly.gen(m.theta[0]) * fld(m, "C", J=(0,)) + fld(m, "F", (0, 1)),
        "wrong parity": fld(m, "F", (0, 1)),
    }
    for match, img in bad.items():
        mapping = dict(generic_supersection(m).mapping)
        mapping[C] = img
        with pytest.raises(DegreeError, match=match):
            action_density(m, Section(m, mapping))


def test_action_density_rejects_bundle_and_jet_coordinates(maxwell_model):
    m = maxwell_model
    C, F = fib(m, "C"), fib(m, "F", (0, 1))
    _, psi = JetModel(m, 1).jet(C, (), (0,))
    th0 = Poly.gen(m.theta[0])
    for img in (Poly.gen(C), th0 * Poly.gen(psi) * Poly.gen(F)):
        mapping = dict(generic_supersection(m).mapping)
        mapping[C] = img
        with pytest.raises(GradedAlgebraError, match="bundle or jet coordinate"):
            action_density(m, Section(m, mapping))


def test_action_density_without_chi_makes_no_jet():
    m = build_ce()
    jm = JetModel(m, 1)
    for jets in (None, jm):
        with pytest.raises(GradedAlgebraError, match="no presymplectic potential"):
            action_density(m, generic_supersection(m), jets)
    assert jm.registry_stats()["jet_coordinates"] == 0
    assert not any(g.role == JET for g in m.space.generators())
