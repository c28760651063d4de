from collections import Counter

import pytest

from gpde.algebra import BASE_THETA, BASE_X, FIBER, JET, GradedAlgebraError, Poly, theta_basis
from gpde.cartan import d_vertical, de_rham, interior
from gpde.jets import (
    HORIZONTAL,
    JetModel,
    boundary_reduction,
    check_bv_identities,
    check_descent,
    descent_residuals,
    master_residuals,
    theta_coefficients,
    vertical_lie,
)
from gpde.cli import main
from gpde.model import ModelBuilder, NotExactError, restrict_to_submanifold, solve_hamiltonian
from gpde.parser import load_builtin, parse_model
from gpde.report import CheckResult
from properties import (
    assemble_levels,
    broken_ym_source,
    check_cartan_descent,
    check_half_double_contraction,
    check_image_levels,
    check_level_form,
    curved_model,
    theta_components,
    theta_top_coefficient,
    ym_source,
)


@pytest.fixture(scope="module")
def jet_ce(ce_model):
    return JetModel(ce_model)


@pytest.fixture(scope="module")
def jet_maxwell(maxwell_model):
    return JetModel(maxwell_model)


class TestJetCoordinates:
    def test_expansion_term_count(self, jet_maxwell):
        C = jet_maxwell.parent.fibers["C"].gen(li=0)
        exp = jet_maxwell.theta_expansion(C)
        assert exp.num_terms() == 16

    def test_expansion_ghost_homogeneous(self, jet_maxwell):
        C = jet_maxwell.parent.fibers["C"].gen(li=0)
        exp = jet_maxwell.theta_expansion(C)
        assert exp.gh() == 1
        assert exp.parity() == 1

    def test_jet_level_ghosts(self, jet_maxwell):
        C = jet_maxwell.parent.fibers["C"].gen(li=0)
        _, g = jet_maxwell.jet(C, (), (0, 2))
        assert g.gh == -1
        _, g = jet_maxwell.jet(C, (1, 1, 3), ())
        assert g.gh == 1

    def test_odd_index_antisymmetry(self, jet_maxwell):
        C = jet_maxwell.parent.fibers["C"].gen(li=0)
        s1, g1 = jet_maxwell.jet(C, (), (2, 0))
        s2, g2 = jet_maxwell.jet(C, (), (0, 2))
        assert g1 is g2
        assert s1 == -1 and s2 == 1
        s3, g3 = jet_maxwell.jet(C, (), (1, 1))
        assert s3 == 0 and g3 is None

    def test_derivative_index_symmetry(self, jet_maxwell):
        C = jet_maxwell.parent.fibers["C"].gen(li=0)
        _, g1 = jet_maxwell.jet(C, (2, 0), ())
        _, g2 = jet_maxwell.jet(C, (0, 2), ())
        assert g1 is g2

    def test_jets_of_jets_rejected(self, jet_maxwell):
        C = jet_maxwell.parent.fibers["C"].gen(li=0)
        _, g = jet_maxwell.jet(C, (), ())
        with pytest.raises(GradedAlgebraError):
            jet_maxwell.jet(g, (), ())


class TestThetaSplits:
    def test_components_reconstruct(self, jet_maxwell):
        p = jet_maxwell.chibar()
        comps = theta_components(p)
        acc = Poly.zero()
        for v in comps.values():
            acc = acc + v
        assert acc == p

    def test_coefficients_reconstruct(self, jet_maxwell):
        m = jet_maxwell.parent
        C = m.fibers["C"].gen(li=0)
        p = jet_maxwell.s.coefficient(jet_maxwell.jet(C, (), ())[1])
        coeffs = theta_coefficients(p)
        acc = Poly.zero()
        for J, v in coeffs.items():
            t = Poly.scalar(1)
            for j in J:
                t = t * Poly.gen(m.theta[j])
            acc = acc + t * v
        assert acc == p

    def test_coefficients_reconstruct_forms_with_base_differentials(self, maxwell_model):
        # an odd dx sorts left of every theta: theta^J c_J must carry its sign
        m = maxwell_model
        th = [Poly.gen(m.theta[a]) for a in range(4)]
        dx = [de_rham(Poly.gen(m.x[a])) for a in range(4)]
        C = Poly.gen(m.fibers["C"].gen(li=0))
        F = Poly.gen(m.fibers["F"].gen((0, 1), li=0))
        forms = [
            dx[0] * th[1],
            dx[0] * dx[2] * th[1] * th[3] * de_rham(C),
            dx[1] * de_rham(th[0]) * th[2] * th[3] * C + de_rham(th[1]) * th[0] * th[2] * F,
            dx[3] * th[0] * th[1] * th[2] * F * de_rham(F) + dx[0] * dx[1] * dx[2] * th[3] * C,
        ]
        for p in forms:
            acc = Poly.zero()
            for J, v in theta_coefficients(p).items():
                t = Poly.scalar(1)
                for j in J:
                    t = t * th[j]
                acc = acc + t * v
            assert acc == p
        assert theta_coefficients(dx[0] * th[1]) == {(1,): -dx[0]}


class TestVectorFields:
    def test_total_derivatives_commute(self, jet_maxwell):
        jm = jet_maxwell
        C = jm.parent.fibers["C"].gen(li=0)
        _, g = jm.jet(C, (), (1,))
        p = Poly.gen(g) * Poly.gen(jm.parent.x[0])
        d0, d1 = jm.total_derivative(0), jm.total_derivative(1)
        assert d0.apply(d1.apply(p)) == d1.apply(d0.apply(p))

    def test_total_derivative_refuses_an_absent_direction(self, maxwell_model):
        jm = boundary_reduction(maxwell_model, [0]).jets
        assert jm.total_derivative(1).name == "D_1"
        with pytest.raises(GradedAlgebraError) as err:
            jm.total_derivative(0)
        assert str(err.value) == \
            "no base direction 0 for a total derivative (base directions: 1, 2, 3)"

    def test_jet_refuses_an_absent_direction(self, jet_maxwell):
        C = jet_maxwell.parent.fibers["C"].gen(li=0)
        for I, J in (((7,), ()), ((), (7,)), ((0, 7), (1,))):
            with pytest.raises(GradedAlgebraError) as err:
                jet_maxwell.jet(C, I, J)
            assert str(err.value) == \
                "no base direction 7 for a jet coordinate (base directions: 0, 1, 2, 3)"

    def test_restricted_jets_refuse_a_jet_of_a_killed_direction(self, maxwell_model,
                                                                 jet_maxwell):
        jm = boundary_reduction(maxwell_model, [0]).jets
        C = maxwell_model.fibers["C"].gen(li=0)
        assert jm.registry.jet_of(jet_maxwell.jet(C, (1,), (2,))[1]) == (C, (1,), (2,))
        message = "no base direction 0 for a jet coordinate (base directions: 1, 2, 3)"
        for I, J in (((0,), ()), ((), (0,))):
            g = jet_maxwell.jet(C, I, J)[1]
            for act in (jm.s.coefficient, lambda g: jm.D.apply(Poly.gen(g))):
                with pytest.raises(GradedAlgebraError) as err:
                    act(g)
                assert str(err.value) == message

    def test_D_is_theta_times_the_total_derivatives(self, jet_maxwell):
        jm = jet_maxwell
        m = jm.parent
        C = m.fibers["C"].gen(li=0)
        jet = jm.jet(C, (1,), (2,))[1]
        for g in (jet, m.x[2], m.theta[2]):
            want = sum((Poly.gen(m.theta[a]) * jm.total_derivative(a).coefficient(g)
                        for a in m.base_indices), Poly.zero())
            assert jm.D.coefficient(g) == want
        assert jm.D.coefficient(jet) == sum(
            (Poly.gen(m.theta[a]) * Poly.gen(jm.jet(C, (1, a), (2,))[1]) for a in range(4)),
            Poly.zero())
        assert jm.D.coefficient(m.x[2]) == Poly.gen(m.theta[2])
        assert jm.D.coefficient(m.theta[2]).is_zero()

    def test_d_squared_zero_on_jets(self, jet_maxwell):
        jm = jet_maxwell
        for fam in ("C", "F"):
            for g0 in jm.parent.fibers[fam].coords()[:2]:
                _, g = jm.jet(g0, (), ())
                assert jm.D.apply(jm.D.coefficient(g)).is_zero()

    def test_intertwining_on_expansions(self, jet_maxwell):
        # pulled-back Q action equals (s + D) on every expansion
        jm = jet_maxwell
        mapping = {u: jm.theta_expansion(u) for u in jm.parent.fiber_coords()}
        for u in jm.parent.fiber_coords():
            lhs = jm.parent.q.coefficient(u).substitute(mapping)
            exp = jm.theta_expansion(u)
            assert lhs == jm.s.apply(exp) + jm.D.apply(exp)

    def test_s_squared_zero_strict_model(self, jet_ce):
        # the parent squares to zero, so the evolutionary part must too
        jm = jet_ce
        C = jm.parent.fibers["C"]
        for i in range(3):
            for J in [(), (0,), (0, 1)]:
                _, g = jm.jet(C.gen(li=i), (), J)
                assert jm.s.apply(jm.s.coefficient(g)).is_zero(), (i, J)
            _, g = jm.jet(C.gen(li=i), (0,), (1,))
            assert jm.s.apply(jm.s.coefficient(g)).is_zero()

    def test_s_anticommutes_with_d_strict_model(self, jet_ce):
        jm = jet_ce
        C = jm.parent.fibers["C"]
        for i in range(3):
            _, g = jm.jet(C.gen(li=i), (), ())
            sD = jm.s.apply(jm.D.coefficient(g))
            Ds = jm.D.apply(jm.s.coefficient(g))
            assert (sD + Ds).is_zero(), i

    def test_s_commutes_with_total_derivatives(self, jet_maxwell):
        jm = jet_maxwell
        F = jm.parent.fibers["F"].gen((0, 1), li=0)
        _, g = jm.jet(F, (), (2,))
        d3 = jm.total_derivative(3)
        lhs = jm.s.apply(d3.apply(Poly.gen(g)))
        rhs = d3.apply(jm.s.apply(Poly.gen(g)))
        assert lhs == rhs

    def test_ghost_seed_formula(self, jet_ce):
        # level-zero ghost jet transforms into minus its squared bracket
        jm = jet_ce
        C = jm.parent.fibers["C"]
        c = [jm.jet(C.gen(li=i), (), ())[1] for i in range(3)]
        s0 = jm.s.coefficient(c[0])
        assert s0 == -Poly.gen(c[1]) * Poly.gen(c[2])


class TestPullback:
    def test_pullback_commutes_with_d(self, jet_maxwell):
        jm = jet_maxwell
        assert jm.omegabar() == reference_pullback(jm, jm.parent.omega(), False)

    @pytest.mark.parametrize("name", ["maxwell_weak", "curved_1_3"])
    def test_chibar_is_the_substitution(self, name, maxwell_model):
        jm = JetModel(maxwell_model if name == "maxwell_weak" else curved_model(1, 3))
        chibar = jm.chibar()
        assert not chibar.is_zero()
        assert chibar == reference_chibar(jm)

    def test_theta_degree_sets(self, jet_maxwell):
        jm = jet_maxwell
        full = set(theta_components(jm.omegabar()))
        vert = set(theta_components(jm.vertical_part(jm.omegabar())))
        assert full == {1, 2, 3, 4}
        assert vert == {2, 3, 4}

    def test_vertical_part_kills_base_differentials(self, jet_maxwell):
        jm = jet_maxwell
        ov = jm.vertical_part(jm.omegabar())
        for mono in ov.terms:
            for g, _ in mono:
                assert not (g.fdeg == 1 and g.role in (0, 1))


class TestVerticalLie:
    def test_matches_cartan_definition(self, jet_maxwell):
        # [i_V, d_v] on vertical forms agrees with the direct rule
        jm = jet_maxwell
        for V in (jm.s, jm.D):
            for p in (jm.vertical_part(jm.chibar()),
                      jm.vertical_part(jm.omegabar())):
                direct = vertical_lie(V, p)
                cartan = interior(V, d_vertical(p)) - d_vertical(interior(V, p))
                assert direct == cartan

    def test_d_lie_raises_theta_degree(self, jet_maxwell):
        jm = jet_maxwell
        cv = jm.vertical_part(jm.chibar())
        for k, comp in theta_components(cv).items():
            moved = vertical_lie(jm.D, comp)
            if not moved.is_zero():
                assert set(theta_components(moved)) == {k + 1}


class TestDescentAndMasters:
    def test_descent_tower_maxwell(self, jet_maxwell):
        for r in check_descent(jet_maxwell):
            assert r.passed and r.residual_terms == 0, r.name

    def test_master_identities_maxwell(self, jet_maxwell):
        for r in check_bv_identities(jet_maxwell):
            assert r.passed and r.residual_terms == 0, r.name

    def test_master_residuals_vanish_on_ym_weak(self):
        jm = JetModel(load_builtin("ym_weak"))
        assert master_residuals(jm) == {"master_vertical": {}, "master_scalar": {}}

    def test_bv_lagrangian_structure(self, jet_maxwell):
        jm = jet_maxwell
        m = jm.parent
        dens = theta_basis([m.theta[a] for a in m.base_indices], ()) * jm.bv_top()
        assert not dens.is_zero()
        assert dens.gh() == 4
        assert set(theta_components(dens)) == {4}


def build_base_differentials():
    """Base dimension 2, u (gh 0) and C (gh 1) with Q u = C, and a chi that
    holds dx and dtheta factors next to a fiber differential."""
    b = ModelBuilder("base_differentials", 2)
    ug, Cg = b.fiber("u", gh=0).gen(), b.fiber("C", gh=1).gen()
    u, C = Poly.gen(ug), Poly.gen(Cg)
    b.q_rules([(ug, C)])
    x0, th0, th1 = (Poly.gen(g) for g in (b.x[0], b.theta[0], b.theta[1]))
    b.chi(C * de_rham(x0) + u * de_rham(th1) + th0 * u * de_rham(u) + C * de_rham(u))
    return b.build()


def _is_base_differential(g):
    return g.fdeg == 1 and g.role in (BASE_X, BASE_THETA)


@pytest.fixture(scope="module", params=["maxwell_weak", "ym_weak", "restricted",
                                        "base_differentials"])
def vertical_case(request, maxwell_model, ym_model):
    model = {"maxwell_weak": lambda: maxwell_model,
             "ym_weak": lambda: ym_model,
             "restricted": lambda: restrict_to_submanifold(ym_model, (1, 2, 3)),
             "base_differentials": build_base_differentials}[request.param]()
    return JetModel(model)


class TestVerticalFirst:
    """The vertical forms are built from the vertical pull-back of chi; the
    full pull-back by substitution (reference_pullback) and its d,
    verticalized afterwards, are the oracle."""

    def test_vertical_chibar_is_vertical_part_of_chibar(self, vertical_case):
        jm = vertical_case
        chi_v = assemble_levels(jm, jm.vertical_chibar_levels())
        assert not chi_v.is_zero()
        assert chi_v == jm.vertical_part(reference_chibar(jm))

    def test_vertical_omegabar_is_vertical_part_of_omegabar(self, vertical_case):
        jm = vertical_case
        om = assemble_levels(jm, jm.vertical_omegabar_levels())
        assert not om.is_zero()
        assert om == jm.vertical_part(de_rham(reference_chibar(jm)))

    def test_double_contraction_sees_only_the_vertical_part(self, vertical_case):
        jm = vertical_case

        def two_jets(mono):
            return all(g.role == JET for g, _ in mono if g.fdeg == 1)

        full = interior(jm.s, interior(jm.s, de_rham(reference_chibar(jm)).filter(two_jets)))
        assert not full.is_zero()
        om = assemble_levels(jm, jm.vertical_omegabar_levels())
        assert interior(jm.s, interior(jm.s, om)) == full

    def test_base_differentials_go_to_zero(self):
        jm = JetModel(build_base_differentials())
        full = reference_chibar(jm)
        assert any(_is_base_differential(g) for g in full.generators())
        chi_v = assemble_levels(jm, jm.vertical_chibar_levels())
        assert not any(_is_base_differential(g) for g in chi_v.generators())
        assert chi_v.num_terms() < full.num_terms()

    def test_checks_never_build_omegabar(self, maxwell_model, monkeypatch):
        def omegabar(self):
            raise AssertionError("omegabar built")

        monkeypatch.setattr(JetModel, "omegabar", omegabar)
        jm = JetModel(maxwell_model)
        for r in check_descent(jm) + check_bv_identities(jm):
            assert r.passed, r.name
        assert not jm.vertical_top().is_zero()

    def test_residual_beyond_the_order_fails(self, maxwell_model):
        # a single first-derivative jet is the whole residual: no PASS
        jm = JetModel(maxwell_model)
        _, g = jm.jet(maxwell_model.fibers["C"].gen(li=0), (0,), ())
        r = CheckResult.of("one_jet", Poly.gen(g).terms)
        assert not r.passed
        assert r.residual_terms == 1


# level-wise pull-back against substitution -----------------------------------


def reference_pullback(jm, p, vertical):
    """The pull-back by Poly.substitute: u to its expansion and du to d of
    it; with vertical=True du to d_v of it and every base differential to
    zero; with HORIZONTAL du to D.apply of it, dx^a to theta^a and dtheta^a
    to zero."""
    mapping = {}
    for g in p.generators():
        if g.role == FIBER:
            exp = jm.theta_expansion(jm.space.coordinate_of(g) if g.fdeg else g)
            if not g.fdeg:
                mapping[g] = exp
            elif vertical == HORIZONTAL:
                mapping[g] = jm.D.apply(exp)
            else:
                mapping[g] = de_rham(exp, vertical)
        elif vertical and g.fdeg and g.role in (BASE_X, BASE_THETA):
            a = jm.space.coordinate_of(g).base_index[0]
            horizontal_dx = vertical == HORIZONTAL and g.role == BASE_X
            mapping[g] = Poly.gen(jm.parent.theta[a]) if horizontal_dx else Poly.zero()
    return p.substitute(mapping)


def reference_chibar(jm):
    """The full pull-back of chi by Poly.substitute."""
    return reference_pullback(jm, jm.parent.chi, False)


def reference_seeds(jm, u):
    """s on the level jets of u, split off Q exp u - D exp u by substitution,
    D.apply and theta_coefficients."""
    mapping = {v: jm.theta_expansion(v) for v in jm.parent.fiber_coords()}
    residue = (jm.parent.q.coefficient(u).substitute(mapping)
               - jm.D.apply(jm.theta_expansion(u)))
    return {J: -c if len(J) % 2 else c for J, c in theta_coefficients(residue).items()}


def _forms(m):
    """chi, and h where a hamiltonian exists."""
    try:
        return [m.chi, solve_hamiltonian(m)]
    except NotExactError:
        return [m.chi]


def colliding_form(m, d=de_rham):
    """theta^0 theta^1 theta^2 leaves each image only its levels () and (3,):
    2 of 16, so nearly every pair of levels collides.  With d the identity,
    the function of the same shape."""
    th = [Poly.gen(m.theta[a]) for a in range(4)]
    C = [Poly.gen(m.fibers["C"].gen(li=i)) for i in range(3)]
    p = th[0] * th[1] * th[2] * C[0] * C[1] * d(C[2])
    return p + th[0] * th[1] * th[3] * C[1] * d(C[0]) * d(C[2])


def _functions(m):
    """Q of every fiber coordinate: the functions the seeds of s pull back."""
    return [q for q in map(m.q.coefficient, m.fiber_coords()) if not q.is_zero()]


class TestLevelPullback:
    """The pull-backs and the seeds of s are built level by level;
    substitution, D.apply and theta_coefficients on whole polynomials are the
    oracle."""

    def test_pullback_matches_substitution(self, vertical_case):
        # both kinds of pull-back, each after the other, share one jet model
        jm = vertical_case
        for vertical in (True, HORIZONTAL, True):
            for p in _forms(jm.parent):
                got = assemble_levels(jm, jm.registry.level_pullback(p, vertical))
                assert not got.is_zero()
                assert got == reference_pullback(jm, p, vertical)

    def test_fiber_differential_needs_a_mode(self, vertical_case):
        # only functions pull back with no mode: the seeds of s read them
        jm = vertical_case
        for level in (None, jm._top):
            with pytest.raises(GradedAlgebraError, match="vertically or horizontally"):
                jm.registry.level_pullback(jm.parent.chi, level=level)
        for p in _functions(jm.parent):
            got = assemble_levels(jm, jm.registry.level_pullback(p))
            assert got == reference_pullback(jm, p, False)

    def test_seeds_match_substitution(self, vertical_case):
        # one level at a time: every level, and no reference level elsewhere
        jm = vertical_case
        levels = list(jm.parent.theta_levels(range(jm.parent.n + 1)))
        for u in jm.parent.fiber_coords():
            want = reference_seeds(jm, u)
            assert set(want) <= set(levels), u
            for K in levels:
                assert jm.registry.seed(u, K) == want.get(K), (u, K)

    def test_levels_rebuild_the_pullback(self, vertical_case):
        # every level is an increasing tuple of base directions, and none is empty
        jm = vertical_case
        valid = set(jm.parent.theta_levels(range(jm.parent.n + 1)))
        for vertical in (HORIZONTAL, True):
            levels = jm.registry.level_pullback(jm.parent.chi, vertical)
            assert set(levels) <= valid and all(levels.values())
            acc = assemble_levels(jm, levels)
            assert acc == reference_pullback(jm, jm.parent.chi, vertical)

    def test_horizontal_pullback_is_the_D_contraction(self, vertical_case):
        # base_differentials holds dx^0, which goes to theta^0, and dtheta^1;
        # chibar is a substitution, apart from the level pull-backs
        jm = vertical_case
        got = assemble_levels(jm, jm.registry.level_pullback(jm.parent.chi, HORIZONTAL))
        assert not got.is_zero()
        assert got == interior(jm.D, jm.chibar())

    def test_horizontal_pullback_makes_no_jet_with_a_in_J(self, ym_model):
        jm = JetModel(ym_model)
        jm.bv_levels()
        jets = [g for g in jm.space.generators() if g.role == JET and g in jm._info]
        assert any(g.jet_I for g in jets)
        assert not any(set(g.jet_I) & set(g.jet_J) for g in jets)

    @pytest.mark.parametrize("vertical", [HORIZONTAL, True])
    def test_mostly_colliding_levels(self, ym_model, vertical):
        jm = JetModel(ym_model)
        p = colliding_form(ym_model)
        got = assemble_levels(jm, jm.registry.level_pullback(p, vertical))
        assert not got.is_zero()
        assert got == reference_pullback(jm, p, vertical)

    @pytest.mark.parametrize("vertical", [HORIZONTAL, True])
    def test_unmapped_factors_right_of_fiber_factors(self, ym_model, vertical):
        # a jet coordinate sorts right of the fiber coordinates and is left
        # alone; the odd fiber factors it moves past sign it
        jm = JetModel(ym_model)
        C = [ym_model.fibers["C"].gen(li=i) for i in range(3)]
        _, psi = jm.jet(C[2], (0,), ())
        p = Poly.gen(C[0]) * de_rham(Poly.gen(C[1])) * Poly.gen(psi) * de_rham(Poly.gen(psi))
        got = assemble_levels(jm, jm.registry.level_pullback(p, vertical))
        assert not got.is_zero()
        assert got == reference_pullback(jm, p, vertical)

    @pytest.mark.parametrize("vertical", [HORIZONTAL, True])
    def test_even_powers(self, ym_model, vertical):
        # horizontally the dx^1 goes to theta^1 through Model.ideal_reduce
        jm = JetModel(ym_model)
        F = Poly.gen(ym_model.fibers["F"].gen((0, 1), li=0))
        G = Poly.gen(ym_model.fibers["F"].gen((2, 3), li=1))
        C = Poly.gen(ym_model.fibers["C"].gen(li=2))
        dx = de_rham(Poly.gen(ym_model.x[1]))
        p = F * F * de_rham(C) + F * F * F * G * G * dx * de_rham(F) + G * G * C * de_rham(G)
        assert any(e > 1 for mono in p.terms for _, e in mono)
        got = assemble_levels(jm, jm.registry.level_pullback(p, vertical))
        assert not got.is_zero()
        assert got == reference_pullback(jm, p, vertical)


class TestOneLevel:
    """A pull-back asked for one level, the seeds of s and vertical_top build
    a single theta level; the whole level-wise pull-back and the volume
    coefficient of the whole vertical two-form are the oracle."""

    @pytest.mark.parametrize("vertical", [False, True, HORIZONTAL])
    def test_level_pullback_at_each_level(self, vertical_case, vertical):
        # with no mode (False), the functions the seeds of s read
        jm = vertical_case
        for p in _forms(jm.parent) if vertical else _functions(jm.parent):
            whole = jm.registry.level_pullback(p, vertical)
            assert whole
            for K in jm.parent.theta_levels(range(jm.parent.n + 1)):
                assert jm.registry.level_pullback(p, vertical, level=K) == whole.get(K, {}), K

    @pytest.mark.parametrize("vertical", [False, True, HORIZONTAL])
    def test_mostly_colliding_level_pullback_at_each_level(self, ym_model, vertical):
        jm = JetModel(ym_model)
        p = colliding_form(ym_model, de_rham if vertical else lambda c: c)
        whole = jm.registry.level_pullback(p, vertical)
        assert whole
        for K in ym_model.theta_levels(range(5)):
            assert jm.registry.level_pullback(p, vertical, level=K) == whole.get(K, {}), K

    def test_vertical_top_is_the_volume_coefficient(self, vertical_case):
        # restricted has base dim 3, where d_v passing the volume flips the sign
        jm = vertical_case
        top = jm.vertical_top()
        assert not top.is_zero()
        om = assemble_levels(jm, jm.vertical_omegabar_levels())
        assert top == theta_top_coefficient(jm.parent, om)

    def test_vertical_top_builds_no_vertical_form(self, ym_model):
        jm = JetModel(ym_model)
        assert not jm.vertical_top().is_zero()
        assert not jm._derived

    def test_checks_read_s_on_low_levels_only(self, ym_model):
        # every term of ym_weak's chi holds two thetas, so the checks read s
        # on level jets psi_{|K} with |K| <= 2 only and on no derivative jet;
        # D_a acts on level J only for a not in J, and a level with |J| >= 3
        # holds level jets psi_{|K} with |K| <= 1, so no jet psi_{I|J} with
        # I nonempty and |J| >= 2 is made
        jm = JetModel(ym_model)
        for r in check_descent(jm) + check_bv_identities(jm):
            assert r.passed, r.name
        read = [g for g in jm.s._coeffs if g.role == JET]
        assert not any(g.jet_I for g in read)
        assert Counter(len(g.jet_J) for g in read) == {0: 21, 1: 48, 2: 36}
        assert any(g.jet_I and len(g.jet_J) == 1 for g in jm._info)
        assert not any(g.jet_I and len(g.jet_J) >= 2 for g in jm._info)
        assert not any(set(g.jet_I) & set(g.jet_J) for g in jm._info)


@pytest.mark.parametrize("name", ["toy_dim0", "ce_aksz", "maxwell_weak", "ym_weak"])
def test_prolong_jet_count(name):
    # s seeded on every level jet psi_{|K} makes psi_{|J} for each of the
    # 2^n levels J, and psi_{a|J} for a not in J: n 2^(n-1) pairs; no jet
    # psi_{a|J} with a in J is made
    m = load_builtin(name)
    n = m.n
    jm = JetModel(m)
    for u in m.fiber_coords():
        for K in m.theta_levels(range(n + 1)):
            jm.s.coefficient(jm.jet(u, (), K)[1])
    assert jm.registry_stats()["jet_coordinates"] == len(m.fiber_coords()) * (2 ** n + n * 2 ** n // 2)


@pytest.mark.parametrize("n, top, checks", [(4, 105, 243), (6, 246, 579), (8, 447, 1059)])
def test_yang_mills_jet_count(n, top, checks):
    # a pull-back builds only the image levels it reads: a Yang-Mills chi
    # sits at theta level n - 2, so no expansion of all 2^n level jets is made
    m = parse_model(ym_source(n), name=f"ym{n}")
    jm = JetModel(m)
    assert not jm.vertical_top().is_zero()
    assert jm.registry_stats()["jet_coordinates"] == top
    jm = JetModel(m)
    for r in check_descent(jm) + check_bv_identities(jm):
        assert r.passed, r.name
    assert jm.registry_stats()["jet_coordinates"] == checks


class TestImageLevels:
    """JetRegistry._level builds each level of the image of u, d_v u and D u
    alone; the whole expansion of u, differentiated and split by theta
    level, is the oracle."""

    @pytest.mark.parametrize("name", ["ym_weak", "base_differentials"])
    def test_every_level_of_every_mode(self, name, ym_model):
        m = ym_model if name == "ym_weak" else build_base_differentials()
        jm = JetModel(m)
        coords = m.fiber_coords()
        for u in (next(u for u in coords if not u.parity), next(u for u in coords if u.parity)):
            # u and d_v u have every level, D u every level but ()
            assert check_image_levels(jm, u) == 3 * 2 ** m.n - 1

    def test_a_level_is_built_when_first_asked_for(self, ym_model):
        jm = JetModel(ym_model)
        u = ym_model.fiber_coords()[0]
        Du = jm.registry._level(u, HORIZONTAL, (1, 3))
        # psi_{1|3} and psi_{3|1}
        assert len(Du) == 2 and jm.registry_stats()["jet_coordinates"] == 2
        assert jm.registry._level(u, HORIZONTAL, (1, 3)) is Du
        # psi_{|13}, which d_v u reads too
        jm.registry._level(u, None, (1, 3))
        jm.registry._level(u, True, (1, 3))
        assert jm.registry_stats()["jet_coordinates"] == 3


# the checks in level form against whole forms --------------------------------


@pytest.fixture(scope="module")
def broken_ym():
    return parse_model(broken_ym_source())


class TestLevelForm:
    """D = theta^a D_a over the free directions, and L_s, i_s, d_v level by
    level, against the whole-form derivations on the assembled forms."""

    def test_vertical_levels(self, vertical_case):
        jm = vertical_case
        for levels in (jm.vertical_chibar_levels(), jm.vertical_omegabar_levels()):
            assert not check_level_form(jm, levels).is_zero()

    def test_scalar_levels(self, vertical_case):
        # on the base-dim-3 restricted model every level of the pulled-back
        # chi is the volume, which D kills; the hamiltonian adds lower ones
        jm = vertical_case
        check_level_form(jm, jm.registry.level_pullback(jm.parent.chi, HORIZONTAL))
        try:
            solve_hamiltonian(jm.parent)
        except NotExactError:
            return
        assert not check_level_form(jm, jm.bv_levels()).is_zero()

    def test_mostly_colliding_levels(self, ym_model):
        jm = JetModel(ym_model)
        p = colliding_form(ym_model)
        assert not check_level_form(jm, jm.registry.level_pullback(p, True)).is_zero()
        # horizontally each term reaches the volume, which D kills
        check_level_form(jm, jm.registry.level_pullback(p, HORIZONTAL))

    def test_broken_model_levels(self, broken_ym):
        jm = JetModel(broken_ym)
        for levels in (jm.vertical_chibar_levels(), jm.vertical_omegabar_levels()):
            assert not check_level_form(jm, levels).is_zero()
        horizontal = jm.registry.level_pullback(broken_ym.chi, HORIZONTAL)
        assert not check_level_form(jm, horizontal).is_zero()

    def test_descent_residuals_are_the_whole_form_components(self, broken_ym):
        # the level k residual is the theta-degree k component of
        # (L_s + L_D) of the whole vertical two-form
        jm = JetModel(broken_ym)
        om = assemble_levels(jm, jm.vertical_omegabar_levels())
        comps = theta_components(vertical_lie(jm.s, om) + vertical_lie(jm.D, om))
        assert [r.residual_terms for r in check_descent(jm)] == [
            comps[k].num_terms() if k in comps else 0 for k in range(6)]


def test_broken_model_fails_descent_and_master_identities(broken_ym, tmp_path, capsys):
    jm = JetModel(broken_ym)
    got = [(r.name, r.passed, r.residual_terms) for r in check_descent(jm)]
    assert got == [("descent_theta_0", True, 0), ("descent_theta_1", True, 0),
                   ("descent_theta_2", False, 36), ("descent_theta_3", False, 216),
                   ("descent_theta_4", False, 324), ("descent_theta_5", True, 0)]
    with pytest.raises(NotExactError):
        check_bv_identities(jm)
    path = tmp_path / "broken_ym.gpde"
    path.write_text(broken_ym_source())
    assert main(["descent", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] descent_theta_2 residual_terms=36\n" in out
    assert "[FAIL] descent_theta_4 residual_terms=324\n" in out
    assert main(["bv-identities", str(path)]) == 1
    assert "[FAIL] bv_identities residual_terms=54  (" in capsys.readouterr().out


def test_broken_model_descent_residuals_at_degree_2(broken_ym):
    # the 36 terms that `gpde descent` prints for descent_theta_2
    res = descent_residuals(JetModel(broken_ym))
    assert sum(len(t) for J, t in res.items() if len(J) == 2) == 36


@pytest.mark.parametrize("name", ["toy_dim0", "maxwell_weak", "ym_weak", "broken_ym"])
def test_no_descent_level_lies_above_the_base_dimension(name):
    """A level J of descent_residuals is a strictly increasing tuple of the
    n base directions, so |J| <= n and descent_theta_{n+1} is read from no
    residual: it passes on every model, the broken one too.  ce_aksz has no
    presymplectic potential, so no descent tower."""
    m = parse_model(broken_ym_source()) if name == "broken_ym" else load_builtin(name)
    jm = JetModel(m)
    # the level forms the residual is built from reach |J| = n: the bound is tight
    sources = {**jm.i_s_omegabar_levels(), **jm.total_chibar_levels()}
    assert max(len(J) for J in sources) == m.n
    assert all(len(J) <= m.n for J in descent_residuals(jm))
    top = check_descent(jm)[-1]
    assert (top.name, top.passed, top.residual_terms) == (f"descent_theta_{m.n + 1}", True, 0)


class TestCartanDescent:
    """The descent tower read off Cartan's formula: d_v omega = 0 level by
    level, so L_s omega = -d_v i_s omega, and L_D omega = -d_v D chi_v,
    against whole-form vertical_lie on the assembled two-form."""

    def test_vertical_cases(self, vertical_case):
        assert check_cartan_descent(vertical_case) > 0

    def test_broken_model(self, broken_ym):
        assert check_cartan_descent(JetModel(broken_ym)) > 0

    def test_half_double_contraction_is_one_substitution(self, vertical_case):
        assert check_half_double_contraction(vertical_case) > 0

    def test_half_double_contraction_broken_model(self, broken_ym):
        assert check_half_double_contraction(JetModel(broken_ym)) > 0

    def test_descent_residual_is_the_whole_form_lie_derivative(self, broken_ym):
        # the residual levels themselves, not only their counts: the level
        # J residual is the theta^J coefficient of (L_s + L_D) omega
        jm = JetModel(broken_ym)
        read = descent_residuals(jm)
        om = assemble_levels(jm, jm.vertical_omegabar_levels())
        want = theta_coefficients(vertical_lie(jm.s, om) + vertical_lie(jm.D, om))
        assert want and set(read) == set(want)
        for J, c in want.items():
            assert Poly(jm.space, read[J]) == c, J

    def test_checks_contract_omegabar_once(self, ym_model, monkeypatch):
        import gpde.jets as jets

        jm = JetModel(ym_model)
        om = jm.vertical_omegabar_levels()
        contracted, lie_fields = [], []
        real_interior, real_lie = jets.interior, jets.vertical_lie

        def interior(V, p):
            if V is jm.s:
                contracted.extend(J for J, t in om.items() if p.terms is t)
            return real_interior(V, p)

        def vertical_lie(V, p):
            lie_fields.append(V)
            return real_lie(V, p)

        monkeypatch.setattr(jets, "interior", interior)
        monkeypatch.setattr(jets, "vertical_lie", vertical_lie)
        for r in check_descent(jm) + check_bv_identities(jm):
            assert r.passed, r.name
        assert sorted(contracted) == sorted(om)
        assert lie_fields and not any(V is jm.s for V in lie_fields)

    def test_descent_needs_no_hamiltonian(self, broken_ym, monkeypatch):
        import gpde.jets as jets

        def solve_hamiltonian(m):
            raise AssertionError("solve_hamiltonian called")

        monkeypatch.setattr(jets, "solve_hamiltonian", solve_hamiltonian)
        got = [r.residual_terms for r in check_descent(JetModel(broken_ym))]
        assert got == [0, 0, 36, 216, 324, 0]
