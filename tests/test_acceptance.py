"""End-to-end acceptance run: one test and one printed verdict line per
shipped guarantee.  Every comparison is against an expected expression built
independently in tests/properties.py; every budget is wall-clock enforced.

Run directly (python tests/test_acceptance.py) for the plain line-per-
criterion output, or through pytest (-s to see the lines on success)."""

import contextlib
import io
import itertools
import time
from fractions import Fraction

import properties as pr
from conftest import build_ce, build_maxwell, build_ym

from gpde.cli import main as cli_main
from gpde.jets import JetModel, boundary_reduction, check_bv_identities, check_descent, ghost_sector
from gpde.model import check_presymplectic, check_solution, q_square, solve_hamiltonian


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _run(label, limit, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL {label} ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    ok = limit is None or dt < limit
    budget = f"{dt:.2f}s" + (f", limit {limit:.0f}s" if limit else "")
    print(f"{'PASS' if ok else 'FAIL'} {label} ({budget})")
    assert ok, f"{label}: runtime {dt:.2f}s exceeds the {limit:.0f}s budget"


def test_criterion_1_flat_connection_model():
    def body():
        assert _cli(["check", "ce_aksz"]) == 0
        jm = JetModel(build_ce())
        res = pr.covariance_residual(pr.generic_section(jm))
        for g, exp in pr.flatness_curvature(jm).items():
            assert res[g] == -exp
        # the gauge variation of a level jet is its seed under s
        for g, exp in pr.gauge_transformation(jm).items():
            assert jm.s.coefficient(g) == exp

    _run("criterion 1: flat connection model checks", 1.0, body)


def test_criterion_2_curved_model_residuals():
    def body():
        m = build_ym()
        qs = q_square(m)
        for a in m.base_indices:
            assert m.q.apply(m.q.apply(pr.Poly.gen(m.x[a]))).is_zero()
            assert m.q.apply(m.q.apply(pr.Poly.gen(m.theta[a]))).is_zero()
        lie = pr.lie_of(m)
        for i in range(lie.dim):
            assert qs.get(m.fibers["C"].gen(li=i), pr.Poly.zero()).is_zero()
        for (a, b) in itertools.combinations(m.base_indices, 2):
            for i in range(lie.dim):
                got = qs[m.fibers["F"].gen((a, b), li=i)]
                assert got == pr.weak_nilpotency_pattern(m, a, b, i)
        results = check_presymplectic(m)
        assert {r.name for r in results} == {
            "closed", "q_invariance", "double_contraction", "hamiltonian_obstruction",
        }
        for r in results:
            assert r.passed and r.residual_terms == 0, r.name

    _run("criterion 2: curved model square and presymplectic residuals", 10.0, body)


def test_criterion_3_covariant_hamiltonian():
    def body():
        m = build_ym()
        L = solve_hamiltonian(m)
        for r in check_solution(m, L):
            assert r.passed and r.residual_terms == 0, r.name
        # canonical-form equality; the match comes out with global sign +1
        assert L == pr.hamiltonian_display(m)

    _run("criterion 3: covariant hamiltonian formula", None, body)


def test_criterion_4_order_three_prolongation():
    # jets are made on demand, so the prolongation covers order 3 and beyond
    def body():
        jm = JetModel(build_ym())
        descent = check_descent(jm)
        assert len(descent) == 6
        for r in descent + check_bv_identities(jm):
            assert r.passed and r.residual_terms == 0, r.name

    _run("criterion 4: order-3 descent tower and master identities", 60.0, body)


def test_criterion_5_time_boundary_reduction():
    def body():
        m = build_ym()
        lie = pr.lie_of(m)
        br = boundary_reduction(m, [0])
        mr = br.restricted
        for r in br.checks:
            assert r.passed, r.name
        assert mr.chi == pr.boundary_one_form_display(m, mr)
        assert len(br.reduced.kernel_vectors) == 6
        blocks = pr.classify_survivors(br.reduced)
        assert {k: len(v) for k, v in blocks.items()} == \
            {"ghost": 3, "A": 9, "pi": 9, "P": 3}
        assert len(br.reduced.survivors) == 24
        assert br.reduced.reduced_form == \
            pr.expected_reduced_form(br.reduced, lie, list(mr.base_indices))
        # the action density along the generic supersection is the BV top
        dens = br.jets.bv_top()
        ok, lam = pr.el_proportional(br.jets, dens, pr.boundary_charge_display(m, br.jets))
        assert ok and lam == Fraction(2)
        # the charge carries the conventional half on the ghost-squared term;
        # without it no single scalar matches (see the decisions ledger)
        ok, _ = pr.el_proportional(
            br.jets, dens, pr.boundary_charge_display(m, br.jets, ghost_half=False))
        assert not ok

    _run("criterion 5: time-boundary reduction and charge", 60.0, body)


def test_criterion_6_classical_sector():
    def body():
        assert _cli(["bv-action", "ym_weak", "--ghost", "0"]) == 0
        jm = JetModel(build_ym())
        sector = ghost_sector(jm.bv_top(), 0)
        ok, lam = pr.el_proportional(jm, sector, pr.first_order_density(jm))
        assert ok and lam == Fraction(1)

    _run("criterion 6: classical sector is first-order Yang-Mills", None, body)


def test_criterion_7_property_suites():
    def body():
        pr.suite_graded_ring(1000)
        pr.suite_differential(1000)
        pr.suite_cartan(1000)
        pr.suite_lie_jacobi(1000)
        pr.suite_el_invariance(1000)
        pr.maxwell_specializations(build_maxwell())

    _run("criterion 7: randomized property suites (1000 cases each)", None, body)


if __name__ == "__main__":
    failures = 0
    for fn in (
        test_criterion_1_flat_connection_model,
        test_criterion_2_curved_model_residuals,
        test_criterion_3_covariant_hamiltonian,
        test_criterion_4_order_three_prolongation,
        test_criterion_5_time_boundary_reduction,
        test_criterion_6_classical_sector,
        test_criterion_7_property_suites,
    ):
        try:
            fn()
        except BaseException as exc:
            failures += 1
            print(f"  {type(exc).__name__}: {exc}")
    raise SystemExit(1 if failures else 0)
