from fractions import Fraction

import pytest

from gpde.algebra import DegreeError, GradedAlgebraError, LieAlgebraData, Poly
from gpde.cartan import de_rham, interior
from gpde.model import (
    Model,
    ModelBuilder,
    NotExactError,
    check_nilpotency,
    check_presymplectic,
    check_projection,
    check_solution,
    presymplectic_residuals,
    q_square,
    restrict_to_submanifold,
    solve_hamiltonian,
    standard_checks,
)
from gpde.parser import load_builtin, parse_model
from gpde.report import CheckResult

from conftest import build_maxwell
from properties import (
    broken_ym_source,
    lie_derivative,
    non_projecting_ym_source,
    reference_presymplectic,
)

# chi and Q depend on x, so omega and its contractions carry dx^a terms
X_DEPENDENT = """
model x_dependent;
base dim = 2;
coord u : gh = 0;
coord c : gh = 1;
Q u = x[0]*c;
chi = theta[1]*u*d(u) + c*u*d(u) + x[1]*theta[1]*u*u*d(u) + x[0]*theta[0]*d(u);
"""

# chi holds dx and dtheta factors next to fiber differentials
BASE_DIFFERENTIALS = """
model base_differentials;
base dim = 2;
coord u : gh = 0;
coord C : gh = 1;
Q u = C;
chi = C*d(x[0]) + u*d(theta[1]) + theta[0]*u*d(u) + C*d(u);
"""

# i_Q i_Q omega = 2 u c, so the double_contraction line FAILs
DOUBLE_CONTRACTION_FAILS = """
model double_contraction_fails;
base dim = 0;
coord u : gh = 0; coord c : gh = 1; coord z : gh = -1;
Q z = u; Q u = c;
chi = z*d(u);
"""


class TestBuilder:
    def test_antisym_resolve(self, maxwell_model):
        F = maxwell_model.fibers["F"]
        sign, g = F.resolve((1, 0), li=0)
        assert sign == -1
        assert g is F.gen((0, 1), li=0)
        sign, g = F.resolve((2, 2), li=0)
        assert sign == 0 and g is None

    def test_q_rule_ghost_mismatch_rejected(self):
        b = ModelBuilder("bad", 1)
        u = b.fiber("u", gh=0).gen()
        w = b.fiber("w", gh=2).gen()
        with pytest.raises(DegreeError):
            b.q_rule(u, Poly.gen(w))

    def test_q_rule_repeat_must_equal_the_stored_rule(self):
        b = ModelBuilder("repeat", 0)
        u = b.fiber("u", gh=0).gen()
        v = b.fiber("v", gh=-1).gen()
        b.q_rule(v, Poly.gen(u) * Poly.gen(u))
        b.q_rule(v, Poly.gen(u) * Poly.gen(u))
        with pytest.raises(GradedAlgebraError,
                           match="^conflicting Q-rules for the same coordinate$"):
            b.q_rule(v, 2 * Poly.gen(u) * Poly.gen(u))
        assert b.build().q.coefficient(v) == Poly.gen(u) * Poly.gen(u)

    def test_q_rule_on_a_differential_is_refused_at_the_call(self):
        b = ModelBuilder("on_du", 0)
        u = b.fiber("u", gh=0).gen()
        with pytest.raises(DegreeError,
                           match=r"^q-rule for 'd\(u\)' is declared on a differential$"):
            b.q_rule(b.space.differential(u), 0)
        assert b.build().q.coefficient(u).is_zero()

    def test_q_rules_store_all_or_none(self):
        b = ModelBuilder("staged", 0)
        u = b.fiber("u", gh=0).gen()
        v, w = b.fiber("v", gh=-1).gen(), b.fiber("w", gh=-1).gen()
        uu = Poly.gen(u) * Poly.gen(u)
        b.q_rule(w, uu)
        with pytest.raises(GradedAlgebraError, match="^conflicting Q-rules"):
            b.q_rules([(v, uu), (w, 2 * uu)])
        with pytest.raises(GradedAlgebraError, match="^conflicting Q-rules"):
            b.q_rules([(v, uu), (v, 2 * uu)])
        with pytest.raises(DegreeError):
            b.q_rules([(v, uu), (w, uu), (u, Poly.gen(u))])
        b.q_rules([(v, 3 * uu), (v, 3 * uu), (w, uu)])
        m = b.build()
        assert (m.q.coefficient(v), m.q.coefficient(w)) == (3 * uu, uu)

    def test_second_chi_is_refused(self):
        # the second call used to replace the first, building a model with chi = 0
        b = ModelBuilder("chi_twice", 0)
        u = b.fiber("u", gh=0).gen()
        v = b.fiber("v", gh=-1).gen()
        b.chi(Poly.gen(v) * de_rham(Poly.gen(u)))
        with pytest.raises(GradedAlgebraError, match="^chi declared twice$"):
            b.chi(0)
        assert b.build().chi == Poly.gen(v) * de_rham(Poly.gen(u))

    def test_duplicate_declarations_rejected(self):
        b = ModelBuilder("dup", 1)
        b.fiber("u", gh=0)
        with pytest.raises(GradedAlgebraError):
            b.fiber("u", gh=0)
        b.metric([1])
        with pytest.raises(GradedAlgebraError):
            b.metric([1])

    def test_chi_degree_validated(self):
        b = ModelBuilder("bad_chi", 2)
        u = b.fiber("u", gh=1).gen()
        with pytest.raises(DegreeError):
            b.chi(Poly.gen(u))

    def test_chi_ghost_validated(self):
        b = ModelBuilder("bad_chi_gh", 2)
        u = b.fiber("u", gh=0).gen()
        with pytest.raises(DegreeError):
            b.chi(de_rham(Poly.gen(u)))

    def test_data_the_reader_refuses_is_refused(self):
        # model_to_source would write `base dim = -1;` and `dim = 0;`
        with pytest.raises(GradedAlgebraError, match="^base dimension must be >= 0$"):
            ModelBuilder("m", -1)
        with pytest.raises(GradedAlgebraError, match="^lie dimension must be at least 1$"):
            LieAlgebraData.abelian(0, "g")

    def test_missing_q_rules_default_to_zero(self):
        b = ModelBuilder("defaults", 1)
        u = b.fiber("u", gh=0).gen()
        m = b.build()
        assert m.q.coefficient(u).is_zero()


class TestIdeal:
    def test_generators_of_ideal_reduce_to_zero(self, maxwell_model):
        m = maxwell_model
        sp = m.space
        for a in m.base_indices:
            dx = Poly.gen(sp.differential(m.x[a]))
            th = Poly.gen(m.theta[a])
            dth = Poly.gen(sp.differential(m.theta[a]))
            assert m.ideal_reduce(dx - th).is_zero()
            assert m.ideal_reduce(dth).is_zero()
            assert m.ideal_reduce(dx) == th
            assert m.drop_dtheta(dth).is_zero()
            assert m.drop_dtheta(dx - th) == dx - th

    def test_ideal_closed_under_multiplication(self, maxwell_model):
        m = maxwell_model
        sp = m.space
        dx0 = Poly.gen(sp.differential(m.x[0]))
        th0 = Poly.gen(m.theta[0])
        F = m.fibers["F"]
        anything = Poly.gen(F.gen((0, 1), li=0)) * Poly.gen(m.theta[2])
        assert m.ideal_reduce((dx0 - th0) * anything).is_zero()
        assert m.ideal_reduce(anything * (dx0 - th0)).is_zero()

    def test_d_keeps_the_ideal_and_i_q_keeps_only_dtheta(self, maxwell_model):
        # d(dx^a - theta^a) = -dtheta^a, but i_Q(dx^a - theta^a) = Q x^a =
        # theta^a: omega is contracted modulo the dtheta^a, not modulo I
        m = maxwell_model
        sp = m.space
        F = Poly.gen(m.fibers["F"].gen((0, 1), li=0))
        for a in m.base_indices:
            gen = Poly.gen(sp.differential(m.x[a])) - Poly.gen(m.theta[a])
            dth = Poly.gen(sp.differential(m.theta[a]))
            assert m.ideal_reduce(de_rham(F * gen)).is_zero()
            assert m.ideal_reduce(interior(m.q, gen)) == Poly.gen(m.theta[a])
            assert m.drop_dtheta(interior(m.q, dth * de_rham(F))).is_zero()


class TestProjectionAndNilpotency:
    def test_standard_models_project(self, ce_model, maxwell_model, ym_model):
        for m in (ce_model, maxwell_model, ym_model):
            assert check_projection(m).passed

    def test_base_override_breaks_projection(self):
        b = ModelBuilder("broken", 1)
        b.q_rule(b.x[0], Poly.zero())
        m = b.build()
        r = check_projection(m)
        assert not r.passed
        assert r.residual_terms == 1

    def test_ce_is_nilpotent(self, ce_model):
        sq = q_square(ce_model)
        assert all(p.is_zero() for p in sq.values())
        assert check_nilpotency(ce_model).passed

    def test_ce_q_components_frozen(self, ce_model):
        C = ce_model.fibers["C"]
        c0, c1, c2 = (Poly.gen(C.gen(li=i)) for i in range(3))
        assert ce_model.q.coefficient(C.gen(li=0)) == -c1 * c2
        assert ce_model.q.coefficient(C.gen(li=1)) == -c2 * c0
        assert ce_model.q.coefficient(C.gen(li=2)) == -c0 * c1

    def test_toy_strict(self, toy_model):
        r = check_nilpotency(toy_model)
        assert r.name == "nilpotency"
        assert r.passed

    def test_maxwell_square_vanishes_despite_weak_flag(self, maxwell_model):
        sq = q_square(maxwell_model)
        assert all(p.is_zero() for p in sq.values())
        r = check_nilpotency(maxwell_model)
        assert r.name == "nilpotency_pattern"
        assert r.passed and r.residual_terms == 0

    def test_ym_square_pattern(self, ym_model):
        # ghost coordinate stays exact, curvature coordinates pick up the
        # obstruction bilinear in the curvatures
        m = ym_model
        sq = q_square(m)
        C = m.fibers["C"]
        F = m.fibers["F"]
        for i in range(3):
            assert sq[C.gen(li=i)].is_zero()
        nonzero = [g for g, p in sq.items() if not p.is_zero()]
        assert nonzero
        assert all(g.name == "F" for g in nonzero)
        # every residual term is quadratic in F with two thetas
        for g in nonzero:
            for mono, _ in sq[g].terms.items():
                fs = sum(e for gg, e in mono if gg.name == "F")
                ths = sum(e for gg, e in mono if gg.role == 1)
                assert fs == 2 and ths == 2


class TestPresymplectic:
    def test_toy(self, toy_model):
        for r in check_presymplectic(toy_model):
            assert r.passed, r.name

    def test_maxwell_residuals_exactly_zero(self, maxwell_model):
        results = check_presymplectic(maxwell_model)
        names = [r.name for r in results]
        assert names == ["closed", "q_invariance", "double_contraction",
                         "hamiltonian_obstruction"]
        for r in results:
            assert r.passed and r.residual_terms == 0, r.name

    def test_ym_residuals_exactly_zero(self, ym_model):
        for r in check_presymplectic(ym_model):
            assert r.passed and r.residual_terms == 0, r.name

    def test_raw_q_invariance_fails_outside_ideal(self, maxwell_model):
        # the residual is only zero modulo the ideal, not identically
        m = maxwell_model
        lq = lie_derivative(m.q, m.omega())
        assert not lq.is_zero()


@pytest.fixture(scope="module", params=["maxwell_weak", "ym_weak", "broken_ym", "restricted",
                                        "x_dependent", "base_differentials",
                                        "double_contraction_fails"])
def cartan_case(request, maxwell_model, ym_model):
    return {"maxwell_weak": lambda: maxwell_model,
            "ym_weak": lambda: ym_model,
            "broken_ym": lambda: parse_model(broken_ym_source()),
            "restricted": lambda: restrict_to_submanifold(ym_model, (1, 2, 3)),
            "x_dependent": lambda: parse_model(X_DEPENDENT),
            "base_differentials": lambda: parse_model(BASE_DIFFERENTIALS),
            "double_contraction_fails": lambda: parse_model(DOUBLE_CONTRACTION_FAILS),
            }[request.param]()


class TestCartanFormula:
    """omega = d chi is closed, so check_presymplectic reads L_Q omega off
    the cached i_Q omega; the whole-form lie_derivative is the oracle."""

    def test_residual_forms_match_whole_form_derivations(self, cartan_case):
        m = cartan_case
        want = reference_presymplectic(m)
        assert not want[0].is_zero()
        residuals = presymplectic_residuals(m)
        assert list(residuals.values()) == [m.ideal_reduce(f) for f in want]
        assert [(r.name, r.passed, r.residual_terms) for r in check_presymplectic(m)[1:]] == [
            (name, r.is_zero(), r.num_terms()) for name, r in residuals.items()]
        whole = interior(m.q, de_rham(m.chi))
        assert m.iq_omega() == m.drop_dtheta(whole)
        assert m.ideal_reduce(m.iq_omega()) == m.ideal_reduce(whole)

    def test_omega_without_dx_is_contracted_modulo_the_ideal(self, cartan_case):
        m = cartan_case
        whole = interior(m.q, de_rham(m.chi))
        if m.name in ("x_dependent", "base_differentials"):
            assert m.drop_dtheta(m.omega()) != m.ideal_reduce(m.omega())
        else:
            assert m.iq_omega() == m.ideal_reduce(whole)
            assert m.iq_omega() == interior(m.q, m.ideal_reduce(m.omega()))

    def test_reducing_omega_before_contracting_loses_dx_terms(self):
        m = parse_model(BASE_DIFFERENTIALS)
        whole = interior(m.q, de_rham(m.chi))
        assert interior(m.q, m.ideal_reduce(m.omega())) != m.ideal_reduce(whole)
        assert m.ideal_reduce(m.iq_omega()) == m.ideal_reduce(whole)

    def test_double_contraction_fails_against_the_oracle(self, tmp_path, capsys):
        from gpde.cli import main

        m = parse_model(DOUBLE_CONTRACTION_FAILS)
        want = m.ideal_reduce(reference_presymplectic(m)[1])
        assert want == 2 * Poly.gen(m.fibers["u"].gen()) * Poly.gen(m.fibers["c"].gen())
        assert presymplectic_residuals(m)["double_contraction"] == want
        path = tmp_path / "double_contraction_fails.gpde"
        path.write_text(DOUBLE_CONTRACTION_FAILS)
        assert main(["check", str(path)]) == 1
        assert "[FAIL] double_contraction residual_terms=1\n" in capsys.readouterr().out

    def test_report_contracts_omega_once(self, monkeypatch, capsys):
        import gpde.cartan
        import gpde.jets
        import gpde.model
        from gpde.cli import main

        omegas, contractions = [], []
        real_omega, real_interior = Model.omega, gpde.cartan.interior

        def omega(self):
            w = real_omega(self)
            if not any(w is o for o, _ in omegas):
                omegas.append((w, self.drop_dtheta(w)))
            return w

        def interior(V, p):
            if V.name == "Q":
                contractions.extend("whole" if p == w else "reduced"
                                    for w, r in omegas if p in (w, r))
            return real_interior(V, p)

        monkeypatch.setattr(Model, "omega", omega)
        for module in (gpde.cartan, gpde.model, gpde.jets):
            monkeypatch.setattr(module, "interior", interior)
        assert main(["report", "ym_weak"]) == 0
        capsys.readouterr()
        assert len(omegas) == 1
        assert omegas[0][0] != omegas[0][1]
        assert contractions == ["reduced"]


class TestNonProjecting:
    """Q theta^1 = theta^0 theta^1: I is not Q-invariant, so every condition
    modulo I FAILs with that reason instead of reading a residual."""

    Q_LINES = ("q_invariance", "double_contraction", "hamiltonian_obstruction")

    def test_q_dependent_checks_fail_naming_the_projection(self):
        m = parse_model(non_projecting_ym_source())
        checks = {r.name: r for r in standard_checks(m)}
        assert not checks["projection"].passed
        assert checks["closed"].passed
        for name in self.Q_LINES:
            assert not checks[name].passed, name
            assert "does not project to the base" in checks[name].detail
        with pytest.raises(GradedAlgebraError, match="does not project to the base"):
            solve_hamiltonian(m)

    def test_report_passes_no_q_dependent_line(self, tmp_path, capsys):
        from gpde.cli import main

        path = tmp_path / "non_projecting.gpde"
        path.write_text(non_projecting_ym_source())
        assert main(["report", str(path)]) == 1
        out = capsys.readouterr().out
        for name in self.Q_LINES + ("hamiltonian_exists",):
            assert f"[FAIL] {name} " in out, name
            assert f"[PASS] {name} " not in out, name

    @pytest.mark.parametrize("argv", [["descent"], ["reduce"], ["boundary", "--kill", "0"]],
                             ids=["descent", "reduce", "boundary"])
    def test_jet_verbs_refuse_naming_the_projection(self, argv, tmp_path, capsys):
        # the jet prolongation s + D is the pulled-back Q only for a projecting
        # Q; boundary restricts first, which rebuilds a canonical base part
        from gpde.cli import main

        path = tmp_path / "non_projecting.gpde"
        path.write_text(non_projecting_ym_source())
        assert main([argv[0], str(path)] + argv[1:]) == 1
        out, err = capsys.readouterr()
        assert "[PASS]" not in out
        assert err == f"FAIL {argv[0]} residual_terms=0 Q does not project to the base\n"


class TestHamiltonian:
    def test_toy_value_frozen(self, toy_model):
        L = solve_hamiltonian(toy_model)
        u = Poly.gen(toy_model.fibers["u"].gen())
        assert L == Fraction(-1, 3) * u * u * u
        for r in check_solution(toy_model, L):
            assert r.passed, r.name

    def test_maxwell_solution_verifies(self, maxwell_model):
        L = solve_hamiltonian(maxwell_model)
        assert not L.is_zero()
        for r in check_solution(maxwell_model, L):
            assert r.passed, r.name
        # no fiber-independent part
        from gpde.model import _fiber_degree
        assert all(_fiber_degree(mono) >= 1 for mono in L.terms)

    def test_ym_solution_verifies(self, ym_model):
        L = solve_hamiltonian(ym_model)
        for r in check_solution(ym_model, L):
            assert r.passed, r.name
        assert ym_model.q.apply(L).is_zero()

    def test_not_exact_raises(self):
        # chi = c dw with Q w = u^2 reduces the contraction to u^2 dc, which
        # is not the fiber differential of any local function
        b = ModelBuilder("inexact", 1)
        u = b.fiber("u", gh=0).gen()
        w = b.fiber("w", gh=-1).gen()
        c = b.fiber("c", gh=1).gen()
        b.q_rule(w, Poly.gen(u) * Poly.gen(u))
        b.chi(Poly.gen(c) * de_rham(Poly.gen(w)))
        m = b.build()
        with pytest.raises(NotExactError):
            solve_hamiltonian(m)

    def test_not_exact_carries_its_residual(self):
        # chi = c dw with Q w = u^2: alpha + dL, L solved from u^2 dc, is left
        # with 2/3 c u du + 2/3 u^2 dc outside the ideal
        b = ModelBuilder("inexact", 1)
        u = b.fiber("u", gh=0).gen()
        w = b.fiber("w", gh=-1).gen()
        c = b.fiber("c", gh=1).gen()
        b.q_rule(w, Poly.gen(u) * Poly.gen(u))
        b.chi(Poly.gen(c) * de_rham(Poly.gen(w)))
        with pytest.raises(NotExactError) as info:
            solve_hamiltonian(b.build())
        assert info.value.residual.num_terms() == 2
        assert "(2 residual terms)" in str(info.value)

    def test_no_chi_raises(self, ce_model):
        with pytest.raises(GradedAlgebraError):
            solve_hamiltonian(ce_model)

    def test_solved_once_per_model(self):
        for m in (build_maxwell(), load_builtin("ym_weak")):
            L = solve_hamiltonian(m)
            assert solve_hamiltonian(m) is L

    def test_failure_raises_on_every_call(self):
        # the inexact model of test_not_exact_carries_its_residual
        b = ModelBuilder("inexact", 1)
        u = b.fiber("u", gh=0).gen()
        w = b.fiber("w", gh=-1).gen()
        c = b.fiber("c", gh=1).gen()
        b.q_rule(w, Poly.gen(u) * Poly.gen(u))
        b.chi(Poly.gen(c) * de_rham(Poly.gen(w)))
        # a failed solve stores nothing, so each call solves and raises again
        for m, terms in ((b.build(), 2), (parse_model(broken_ym_source()), 54)):
            for _ in range(2):
                with pytest.raises(NotExactError) as info:
                    solve_hamiltonian(m)
                assert info.value.residual.num_terms() == terms
            assert "solve_hamiltonian" not in m._derived

    def test_standard_checks_shape(self, maxwell_model):
        out = standard_checks(maxwell_model)
        assert [r.name for r in out] == [
            "projection", "nilpotency_pattern", "closed", "q_invariance",
            "double_contraction", "hamiltonian_obstruction",
        ]
        assert all(r.passed for r in out)


class TestVerdicts:
    """CheckResult.of and CheckResult.refused, which make every verdict."""

    def test_of_a_poly(self, maxwell_model):
        x = Poly.gen(maxwell_model.x[0])
        assert CheckResult.of("r", x * x + 3, detail="d") == CheckResult("r", False, 2, "d")
        assert CheckResult.of("r", x - x) == CheckResult("r", True, 0, "")

    def test_of_level_dicts(self, maxwell_model):
        x = Poly.gen(maxwell_model.x[0])
        levels = {(): (x * x).terms, (0,): (x + 1).terms}
        assert CheckResult.of("r", *levels.values()) == CheckResult("r", False, 3, "")
        assert CheckResult.of("r", {}, {}) == CheckResult("r", True, 0, "")

    def test_of_no_residual(self):
        assert CheckResult.of("r", detail="d") == CheckResult("r", True, 0, "d")

    def test_refused(self):
        assert CheckResult.refused("r", GradedAlgebraError("no chi")) == \
            CheckResult("r", False, 0, "no chi")
        assert CheckResult.refused("r", "no top") == CheckResult("r", False, 0, "no top")

    def test_refused_counts_a_not_exact_residual(self, maxwell_model):
        res = Poly.gen(maxwell_model.x[0]) + Poly.gen(maxwell_model.x[1])
        assert CheckResult.refused("r", NotExactError("not exact", res)) == \
            CheckResult("r", False, 2, "not exact")
