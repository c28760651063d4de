import pytest

from gpde.algebra import BASE_THETA, BASE_X, JET, GradedAlgebraError, Poly
from gpde.cartan import d_vertical, de_rham, interior
from gpde.density import restrict_to_submanifold
from gpde.jets import (
    JetModel,
    _split_result,
    bv_lagrangian,
    check_bv_identities,
    check_descent,
    prolong,
    theta_coefficients,
    theta_components,
    vertical_lie,
)
from gpde.model import ModelBuilder


@pytest.fixture(scope="module")
def jet_ce(ce_model):
    return JetModel(ce_model, 1)


@pytest.fixture(scope="module")
def jet_maxwell(maxwell_model):
    return JetModel(maxwell_model, 2)


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


class TestVectorFields:
    def test_total_derivatives_commute(self, jet_maxwell):
        jm = jet_maxwell
        C = jm.parent.fibers["C"].gen(li=0)
        _, g = jm.jet(C, (), (1,))
        p = Poly.gen(g) * Poly.gen(jm.parent.x[0])
        d0, d1 = jm.total_derivative(0), jm.total_derivative(1)
        assert d0.apply(d1.apply(p)) == d1.apply(d0.apply(p))

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
        assert jm.omegabar() == jm.pullback(jm.parent.omega())

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

    def test_truncation_split(self, jet_maxwell):
        jm = jet_maxwell
        C = jm.parent.fibers["C"].gen(li=0)
        _, shallow = jm.jet(C, (0,), ())
        _, deep = jm.jet(C, (0, 1, 2), ())
        p = Poly.gen(shallow) + Poly.gen(deep)
        kept, dropped = jm.truncation_split(p)
        assert kept == Poly.gen(shallow)
        assert dropped == Poly.gen(deep)


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
            assert r.excluded_terms == 0, r.name

    def test_master_identities_maxwell(self, jet_maxwell):
        for r in check_bv_identities(jet_maxwell):
            assert r.passed and r.residual_terms == 0, r.name
            assert r.excluded_terms == 0, r.name

    def test_bv_lagrangian_structure(self, jet_maxwell):
        jm = jet_maxwell
        dens = bv_lagrangian(jm)
        assert not dens.is_zero()
        assert dens.gh() == 4
        assert set(theta_components(dens)) == {4}

    def test_prolong_alias(self, maxwell_model):
        jm = prolong(maxwell_model, 0)
        assert jm.N == 0
        stats = jm.registry_stats()
        assert stats["jet_coordinates"] >= 0


def build_base_differentials():
    """Base dimension 2, u (gh 0) and C (gh 1) with Q u = C, and a chi that
    holds dx and dtheta factors next to a fiber differential."""
    b = ModelBuilder("base_differentials", 2)
    ug, Cg = b.fiber("u", gh=0).gen(), b.fiber("C", gh=1).gen()
    u, C = Poly.gen(ug), Poly.gen(Cg)
    b.q_rule(ug, C)
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
    return JetModel(model, 1)


class TestVerticalFirst:
    """The vertical forms are built from the vertical pull-back of chi; the
    full pull-back and omegabar, verticalized afterwards, are the oracle."""

    def test_vertical_chibar_is_vertical_part_of_chibar(self, vertical_case):
        jm = vertical_case
        assert not jm.vertical_chibar().is_zero()
        assert jm.vertical_chibar() == jm.vertical_part(jm.chibar())

    def test_vertical_omegabar_is_vertical_part_of_omegabar(self, vertical_case):
        jm = vertical_case
        assert not jm.vertical_omegabar().is_zero()
        assert jm.vertical_omegabar() == jm.vertical_part(jm.omegabar())

    def test_double_contraction_sees_only_the_vertical_part(self, vertical_case):
        jm = vertical_case

        def two_jets(mono):
            return all(g.role == JET for g, _ in mono if g.fdeg == 1)

        full = interior(jm.s, interior(jm.s, jm.omegabar().filter(two_jets)))
        assert not full.is_zero()
        assert interior(jm.s, interior(jm.s, jm.vertical_omegabar())) == full

    def test_base_differentials_go_to_zero(self):
        jm = JetModel(build_base_differentials(), 1)
        assert any(_is_base_differential(g) for g in jm.chibar().generators())
        assert not any(_is_base_differential(g) for g in jm.vertical_chibar().generators())
        assert jm.vertical_chibar().num_terms() < jm.chibar().num_terms()

    def test_checks_never_build_omegabar(self, maxwell_model, monkeypatch):
        def omegabar(self):
            raise AssertionError("omegabar built")

        monkeypatch.setattr(JetModel, "omegabar", omegabar)
        jm = JetModel(maxwell_model, 1)
        for r in check_descent(jm) + check_bv_identities(jm):
            assert r.passed, r.name
        assert not jm.vertical_top().is_zero()

    def test_residual_beyond_the_order_fails(self, maxwell_model):
        # a single first-derivative jet is the whole residual: no PASS at order 0
        jm = JetModel(maxwell_model, 0)
        _, g = jm.jet(maxwell_model.fibers["C"].gen(li=0), (0,), ())
        r = _split_result(jm, "one_jet", Poly.gen(g))
        assert not r.passed
        assert (r.residual_terms, r.excluded_terms) == (1, 1)
