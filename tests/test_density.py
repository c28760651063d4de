import itertools

import pytest

from gpde.algebra import JET, DegreeError, GradedAlgebraError, Poly
from gpde.cartan import VectorField, de_rham, interior
from gpde.jets import (
    JetModel,
    Section,
    action_density,
    boundary_reduction,
    generic_supersection,
    ghost_sector,
    theta_coefficients,
)
from gpde.model import restrict_to_submanifold, tangency_residuals
from gpde.parser import load_builtin, parse_model

from conftest import build_ce, build_maxwell, build_toy
from properties import (
    assemble_levels,
    covariance_residual,
    curved_model,
    el_proportional,
    euler_lagrange,
    generic_section,
    reference_action_density,
    ym_weak_source,
)


def fib(m, fam, idx=(), li=None):
    family = m.fibers[fam]
    if family.lie is not None and li is None:
        li = 0
    sign, u = family.resolve(tuple(idx), li)
    assert sign == 1
    return u


def psi(jm, fam, idx=(), J=(), I=(), li=None):
    """The jet psi_{I|J} of a fiber coordinate, as a Poly."""
    s2, g = jm.jet(fib(jm.parent, fam, idx, li), I, J)
    assert s2 == 1
    return Poly.gen(g)


# sections ------------------------------------------------------------------


def test_generic_section_shapes(maxwell_model):
    m = maxwell_model
    sec = generic_section(JetModel(m))
    C = fib(m, "C")
    assert sec[C].num_terms() == 4
    for g in sec[C].generators():
        if g.role == JET:
            assert g.gh == 0
    F01 = fib(m, "F", (0, 1))
    assert sec[F01].num_terms() == 1


def test_generic_supersection_levels(maxwell_model):
    m = maxwell_model
    sec = generic_supersection(JetModel(m))
    C = fib(m, "C")
    assert sec[C].num_terms() == 16
    ghs = {g.gh for g in sec[C].generators() if g.role == JET}
    assert ghs == {1, 0, -1, -2, -3}


def test_covariance_residual_maxwell(maxwell_model):
    m = maxwell_model
    jm = JetModel(m)
    sec = generic_section(jm)
    res = covariance_residual(sec)
    C = fib(m, "C")
    coeffs = theta_coefficients(res[C])
    for a, b in itertools.combinations(range(4), 2):
        want = (psi(jm, "F", (a, b)) + psi(jm, "C", J=(a,), I=(b,))
                - psi(jm, "C", J=(b,), I=(a,)))
        assert coeffs[(a, b)] == want
    # the field strength coordinate itself is transported by -D only
    F01 = fib(m, "F", (0, 1))
    assert res[F01] == -jm.D.apply(sec[F01])


def test_flat_section_kills_residual(maxwell_model):
    m = maxwell_model
    jm = JetModel(m)
    mapping = dict(generic_section(jm).mapping)
    for a, b in itertools.combinations(range(4), 2):
        F = fib(m, "F", (a, b))
        mapping[F] = psi(jm, "C", J=(b,), I=(a,)) - psi(jm, "C", J=(a,), I=(b,))
    sec = Section(jm, mapping)
    C = fib(m, "C")
    assert covariance_residual(sec)[C].is_zero()


def test_pull_sends_du_to_d_of_the_image(maxwell_model):
    m = maxwell_model
    sec = flat_section_with_theta_levels(JetModel(m))
    C, F01 = fib(m, "C"), fib(m, "F", (0, 1))
    dC, dx0 = (Poly.gen(m.space.differential(g)) for g in (C, m.x[0]))
    assert sec.pull(dC) == de_rham(sec[C])
    assert sec.pull(Poly.gen(F01) * dC + Poly.gen(C) * dx0) == \
        sec[F01] * de_rham(sec[C]) + sec[C] * dx0


# gauge variation: the seeds of the jet evolutionary field -----------------


def level_seeds_match_covariance_residual(jm, depth):
    """Level J of the covariance residual along the generic supersection is
    (-1)^{|J|} s(psi_{|J}): the pulled-back Q is s + D on expansions."""
    m = jm.parent
    res = covariance_residual(generic_supersection(jm))
    for u in m.fiber_coords():
        coeffs = theta_coefficients(res[u])
        for k in range(depth):
            for J in itertools.combinations(m.base_indices, k):
                _, jg = jm.jet(u, (), J)
                want = coeffs.get(J, Poly.zero())
                assert jm.s.coefficient(jg) == (-want if k & 1 else want)


def test_gauge_variation_matches_jet_seeds_maxwell(maxwell_model):
    level_seeds_match_covariance_residual(JetModel(maxwell_model), 3)


def test_gauge_variation_matches_jet_seeds_ym(ym_model):
    level_seeds_match_covariance_residual(JetModel(ym_model), 2)


def test_gauge_variation_ce_formulas(ce_model):
    m = ce_model
    jm = JetModel(m)
    # ghost: s c = -(1/2)[c, c], component 1 of su(2) reads -c2*c3
    _, c1 = jm.jet(fib(m, "C", li=0))
    assert jm.s.coefficient(c1) == -psi(jm, "C", li=1) * psi(jm, "C", li=2)
    # connection: s A_a = del_a c + [A_a, c]
    _, a01 = jm.jet(fib(m, "C", li=0), (), (0,))
    want = (psi(jm, "C", li=0, I=(0,))
            + psi(jm, "C", J=(0,), li=1) * psi(jm, "C", li=2)
            - psi(jm, "C", J=(0,), li=2) * psi(jm, "C", li=1))
    assert jm.s.coefficient(a01) == want


def test_gauge_variation_squares_to_zero(ce_model):
    m = ce_model
    jm = JetModel(m)
    levels = [jm.jet(u, (), J)[1] for u in m.fiber_coords() for J in m.theta_levels(range(m.n + 1))]
    var = {g: jm.s.coefficient(g) for g in levels}
    space = m.space

    def srule(g):
        if g.role != JET:
            return None
        base = space.coordinate(g.name, JET, g.gh, base_index=g.base_index,
                                lie_index=g.lie_index, jet_J=g.jet_J)
        img = var.get(base)
        if img is None:
            return None
        for a in g.jet_I:
            img = jm.total_derivative(a).apply(img)
        return img

    s = VectorField(space, 1, rule=srule, name="s_levels")
    for g, img in var.items():
        assert s.apply(img).is_zero(), f"s^2 fails on {g.name}"


# variational calculus ------------------------------------------------------


def test_euler_lagrange_second_order(maxwell_model):
    jm = JetModel(maxwell_model)
    a0 = psi(jm, "C", J=(0,))
    dens = psi(jm, "C", J=(0,), I=(1,)) * psi(jm, "C", J=(0,), I=(1,)) / 2
    el = euler_lagrange(jm, dens)
    key = [g for g in el if g.name == "C"][0]
    assert el[key] == -psi(jm, "C", J=(0,), I=(1, 1))
    assert key.jet_J == (0,) and key.jet_I == ()
    assert a0.generators()


def test_euler_lagrange_odd_field(maxwell_model):
    jm = JetModel(maxwell_model)
    c = psi(jm, "C")
    dens = c * psi(jm, "C", I=(0,))
    el = euler_lagrange(jm, dens)
    key = [g for g in el][0]
    assert el[key] == 2 * psi(jm, "C", I=(0,))


def test_euler_lagrange_ignores_total_derivatives(maxwell_model):
    jm = JetModel(maxwell_model)
    base = psi(jm, "C", J=(1,)) * psi(jm, "C", J=(1,), I=(2,))
    currents = [
        psi(jm, "C", J=(0,)) * psi(jm, "C", J=(0,), I=(1,)),
        psi(jm, "C") * psi(jm, "C", J=(2,)) * psi(jm, "C", J=(2,), I=(0,)),
        psi(jm, "F", (0, 1)) * psi(jm, "C", I=(3,)),
    ]
    for j in currents:
        for a in (0, 1, 3):
            shifted = base + jm.total_derivative(a).apply(j)
            assert euler_lagrange(jm, shifted) == euler_lagrange(jm, base)
            assert euler_lagrange(jm, base + psi(jm, "C", J=(1,))) != euler_lagrange(jm, base)


def test_el_proportional(maxwell_model):
    jm = JetModel(maxwell_model)
    a = psi(jm, "C", J=(0,)) * psi(jm, "C", J=(0,), I=(1,)) * psi(jm, "F", (2, 3))
    ok, lam = el_proportional(jm, 3 * a, a)
    assert ok and lam == 3
    f01 = psi(jm, "F", (0, 1))
    ok, _ = el_proportional(jm, a, a + f01 * f01)
    assert not ok


def test_euler_lagrange_keys_in_canonical_order(maxwell_model):
    """Generators hash by identity, so a set of them iterates in an order
    that depends on memory addresses; the keys must not."""
    jm = JetModel(maxwell_model)
    dens = action_density(generic_section(jm))
    dens = dens + psi(jm, "F", (2, 3)) * psi(jm, "C", J=(0,), I=(1,)) \
        + psi(jm, "C", J=(3,)) * psi(jm, "F", (0, 1), I=(2,))
    keys = list(euler_lagrange(jm, dens))
    assert len(keys) >= 3
    assert keys == sorted(keys, key=lambda g: g._sort)


# action densities ----------------------------------------------------------


def test_action_density_dim0():
    jm = JetModel(build_toy())
    dens = action_density(generic_section(jm))
    u0 = psi(jm, "u")
    assert dens == -u0 * u0 * u0 / 3
    el = euler_lagrange(jm, dens)
    assert list(el.values()) == [-u0 * u0]


def test_action_density_maxwell_first_order():
    jm = JetModel(build_maxwell())
    dens = action_density(generic_section(jm))
    assert not dens.is_zero()
    assert ghost_sector(dens, 0) == dens
    levels = {(g.name, len(g.jet_J)) for g in dens.generators() if g.role == JET}
    assert levels == {("C", 1), ("F", 0)}
    # quadratic field-strength block and the mixing block both present
    sq = dens.filter(lambda mono: sum(e for g, e in mono if g.name == "F") == 2)
    mix = dens.filter(lambda mono: any(g.name == "C" for g, e in mono))
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
    with pytest.raises(GradedAlgebraError) as err:
        restrict_to_submanifold(maxwell_model, (1, 2, 7))
    assert str(err.value) == "no base direction 7 to keep (base directions: 0, 1, 2, 3)"


def test_restriction_rejects_a_repeated_direction(maxwell_model):
    with pytest.raises(GradedAlgebraError) as err:
        restrict_to_submanifold(maxwell_model, (1, 1, 2))
    assert str(err.value) == "base direction 1 to keep given twice"


def test_boundary_reduction_rejects_a_repeated_kill_direction(maxwell_model):
    # the Python API refuses the repeat as the CLI's --kill 0,0 does
    with pytest.raises(GradedAlgebraError) as err:
        boundary_reduction(maxwell_model, (0, 0))
    assert str(err.value) == "base direction 0 to kill given twice"


def test_tangency_is_read_only_on_a_projecting_Q():
    """Q x^0 = theta^1 is not tangent to the surface x^0 = 0, but it does not
    project to the base either, and boundary_reduction refuses that before
    it reads the tangency residuals: its tangency line cannot FAIL."""
    m = parse_model(ym_weak_source() + "Q x[0] = theta[1];\n", name="ym_tilted")
    res = tangency_residuals(m, (1, 2, 3))
    assert sum(p.num_terms() for p in res.values()) == 1
    assert res[m.x[0]] == Poly.gen(m.theta[1])
    with pytest.raises(GradedAlgebraError, match="Q does not project to the base"):
        boundary_reduction(m, [0])


def test_boundary_reduction_maxwell(maxwell_model):
    br = boundary_reduction(maxwell_model, kill=(0,))
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
    br = boundary_reduction(maxwell_model, kill=(0,))
    dens = action_density(generic_supersection(br.jets))
    gh1 = ghost_sector(dens, 1)
    assert not gh1.is_zero()
    # abelian charge: momentum times the gradient of the ghost field
    levels = {(g.name, len(g.jet_J)) for g in gh1.generators() if g.role == JET}
    assert ("C", 0) in levels and ("F", 0) in levels


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
    sec = make(JetModel(m))
    if m.chi is None:
        for density in (action_density, reference_action_density):
            with pytest.raises(GradedAlgebraError, match="no presymplectic potential"):
                density(sec)
        return
    got = action_density(sec)
    # the ghost-zero section of the restricted model has no top level
    assert got.is_zero() == (make is generic_section and m.name.endswith("_on_123"))
    assert got == reference_action_density(sec)
    # a jet model whose BV scalar the master identities already built
    jm = JetModel(m)
    jm.bv_levels()
    assert action_density(make(jm)) == got


def test_generic_supersection_density_is_bv_top(oracle_model):
    """Along the generic supersection psi_{I|J} goes to D_I psi_{|J}, itself:
    the action density is the top level of the BV scalar, term for term."""
    jm = JetModel(oracle_model)
    sec = generic_supersection(jm)
    if oracle_model.chi is None:
        with pytest.raises(GradedAlgebraError, match="no presymplectic potential"):
            action_density(sec)
        return
    top = jm.bv_top()
    assert not top.is_zero()
    assert action_density(sec) == top


def test_bv_scalar_is_the_D_contraction_plus_lbar(oracle_model):
    jm = JetModel(oracle_model)
    if oracle_model.chi is None:
        with pytest.raises(GradedAlgebraError, match="no presymplectic potential"):
            jm.bv_levels()
        return
    got = assemble_levels(jm, jm.bv_levels())
    assert not got.is_zero()
    assert got == interior(jm.D, jm.chibar()) + jm.lbar()


def flat_section_with_theta_levels(jm):
    """The flat Maxwell section of test_flat_section_kills_residual plus
    theta^0 theta^1 psi^C_{3|01} in the image of C."""
    m = jm.parent
    mapping = dict(generic_section(jm).mapping)
    for a, b in itertools.combinations(range(4), 2):
        mapping[fib(m, "F", (a, b))] = (psi(jm, "C", J=(b,), I=(a,))
                                        - psi(jm, "C", J=(a,), I=(b,)))
    th0, th1 = Poly.gen(m.theta[0]), Poly.gen(m.theta[1])
    C = fib(m, "C")
    mapping[C] = mapping[C] + th0 * th1 * psi(jm, "C", J=(0, 1), I=(3,))
    return Section(jm, mapping)


def test_action_density_of_images_with_theta_and_derivatives(maxwell_model):
    sec = flat_section_with_theta_levels(JetModel(maxwell_model))
    got = action_density(sec)
    # the curvature is the derivative of the connection's level jets
    assert {(g.name, len(g.jet_J), len(g.jet_I)) for g in got.generators()} == {("C", 1, 1)}
    assert got == reference_action_density(sec)


def test_action_density_rejects_inhomogeneous_or_wrong_parity_images(maxwell_model):
    m = maxwell_model
    jm = JetModel(m)
    C = fib(m, "C")
    bad = {
        "not parity-homogeneous": Poly.gen(m.theta[0]) * psi(jm, "C", J=(0,)) + psi(jm, "F", (0, 1)),
        "wrong parity": psi(jm, "F", (0, 1)),
    }
    for match, img in bad.items():
        mapping = dict(generic_supersection(jm).mapping)
        mapping[C] = img
        with pytest.raises(DegreeError, match=match):
            action_density(Section(jm, mapping))


def test_action_density_rejects_bundle_coordinates(maxwell_model):
    m = maxwell_model
    jm = JetModel(m)
    C, F = fib(m, "C"), fib(m, "F", (0, 1))
    _, psi0 = jm.jet(C, (), (0,))
    th0 = Poly.gen(m.theta[0])
    for img in (Poly.gen(C), th0 * Poly.gen(psi0) * Poly.gen(F)):
        mapping = dict(generic_supersection(jm).mapping)
        mapping[C] = img
        with pytest.raises(GradedAlgebraError, match="bundle coordinate"):
            action_density(Section(jm, mapping))


def test_images_in_jets_another_jet_model_made(maxwell_model):
    # a jet is a generator of the space: any jet model of it acts on it
    other = generic_supersection(JetModel(maxwell_model))
    jm = JetModel(maxwell_model)
    sec = Section(jm, other.mapping)
    assert covariance_residual(sec) == covariance_residual(other)
    assert action_density(sec) == action_density(other)
    assert jm.registry_stats() == other.jets.registry_stats()


def test_action_density_without_chi_makes_no_jet():
    m = build_ce()
    jm = JetModel(m)
    sec = generic_supersection(jm)
    made = jm.registry_stats()["jet_coordinates"]
    level_jets = [g for g in m.space.generators() if g.role == JET]
    assert made == len(level_jets)
    with pytest.raises(GradedAlgebraError, match="no presymplectic potential"):
        action_density(sec)
    # no jet beyond the section's level jets
    assert jm.registry_stats()["jet_coordinates"] == made
    assert [g for g in m.space.generators() if g.role == JET] == level_jets


def test_boundary_reduction_refuses_absent_kill_directions(maxwell_model):
    for kill, absent in (([9], 9), ([0, 7, 5], 7)):
        with pytest.raises(GradedAlgebraError) as err:
            boundary_reduction(maxwell_model, kill=kill)
        assert str(err.value) == \
            f"no base direction {absent} to kill (base directions: 0, 1, 2, 3)"


def test_jet_of_no_bundle_coordinate_is_refused():
    m = build_maxwell()
    stray = m.space.coordinate("Z", JET, 0, jet_I=(1,))
    with pytest.raises(GradedAlgebraError, match="jet coordinate 'Z' of no bundle coordinate"):
        JetModel(m).D.apply(Poly.gen(stray))
