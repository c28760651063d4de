"""Command line behaviour: exit codes, report formats, verb wiring."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpde.cli import main


def run(argv, capsys):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.mark.parametrize("name", ["toy_dim0", "ce_aksz", "maxwell_weak", "ym_weak"])
def test_check_builtins_pass(name, capsys):
    rc, out, err = run(["check", name], capsys)
    assert rc == 0
    assert "result: OK" in out
    assert err == ""


def test_hamiltonian_toy(capsys):
    rc, out, _ = run(["hamiltonian", "toy_dim0"], capsys)
    assert rc == 0
    assert "hamiltonian: -1/3*u^3" in out


def test_check_json_schema(capsys):
    rc, out, _ = run(["check", "maxwell_weak", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["model"] == "maxwell_weak"
    assert [c["name"] for c in doc["checks"]] == [
        "projection", "nilpotency_pattern", "closed",
        "q_invariance", "double_contraction", "hamiltonian_obstruction",
    ]
    for c in doc["checks"]:
        assert c["pass"] is True
        assert set(c) == {"name", "pass", "residual_terms", "detail"}
        assert isinstance(c["detail"], str)
    assert doc["outputs"] == {}
    # the JSON detail is the text line's parenthesised text
    _, text, _ = run(["check", "maxwell_weak"], capsys)
    line = next(ln for ln in text.splitlines() if "nilpotency_pattern" in ln)
    detail = doc["checks"][1]["detail"]
    assert detail and line.endswith(f"  ({detail})")


def test_report_json_toy_golden(capsys):
    rc, out, _ = run(["report", "toy_dim0", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "model": "toy_dim0",
        "checks": [
            {"name": "projection", "pass": True, "residual_terms": 0, "detail": ""},
            {"name": "nilpotency", "pass": True, "residual_terms": 0, "detail": ""},
            {"name": "closed", "pass": True, "residual_terms": 0, "detail": ""},
            {"name": "q_invariance", "pass": True, "residual_terms": 0, "detail": ""},
            {"name": "double_contraction", "pass": True, "residual_terms": 0, "detail": ""},
            {"name": "hamiltonian_obstruction", "pass": True, "residual_terms": 0, "detail": ""},
            {"name": "hamiltonian_exists", "pass": True, "residual_terms": 0, "detail": ""},
            {"name": "hamiltonian_relation", "pass": True, "residual_terms": 0, "detail": ""},
            {"name": "q_annihilates_hamiltonian", "pass": True, "residual_terms": 0, "detail": ""},
        ],
        "outputs": {
            "hamiltonian": "-1/3*u^3",
            "bv_action": "-1/3*u[|]^3",
        },
    }


def test_boundary_maxwell(capsys):
    rc, out, _ = run(["boundary", "maxwell_weak", "--kill", "0"], capsys)
    assert rc == 0
    assert "kernel dimension 2" in out
    assert "w7 = F[0,1]{1}[|1] + F[0,2]{1}[|2] + F[0,3]{1}[|3]" in out
    assert "charge_integrand:" in out


def test_reduce_toy(capsys):
    rc, out, _ = run(["reduce", "toy_dim0"], capsys)
    assert rc == 0
    assert "survivors: w0 = u; w1 = v" in out
    assert "reduced: dw0*dw1" in out


def test_reduce_at_point(capsys):
    rc, out, _ = run(["reduce", "toy_dim0", "--at", "u=2,v=-1/3"], capsys)
    assert rc == 0
    assert "survivors: w0 = u; w1 = v" in out


def _wrong_survivor_forms(reduce_form):
    """reduce_form with the first survivor form doubled, so the reduced form
    no longer lifts back to the form that was reduced."""
    from gpde.reduction import ReducedModel

    def reduce(*args, **kwargs):
        rm = reduce_form(*args, **kwargs)
        forms = [[2 * c for c in rm.survivor_forms[0]]] + rm.survivor_forms[1:]
        return ReducedModel(rm.space, rm.survivors, forms, rm.kernel_vectors,
                            rm.reduced_form, rm.universe, rm.form, rm.images)

    return reduce


def test_text_reduce_builds_no_projected_field(capsys, monkeypatch):
    """No verb reads the projected field s_action, which is built on first
    read: a text reduce of ym_weak substitutes twice (the survivor
    differentials into the form, and back in the split check), where
    building the field would add one substitution per survivor (66)."""
    from gpde.algebra import Poly

    calls = []
    substitute = Poly.substitute

    def counted(self, mapping):
        calls.append(len(mapping))
        return substitute(self, mapping)

    monkeypatch.setattr(Poly, "substitute", counted)
    rc, out, _ = run(["reduce", "ym_weak"], capsys)
    assert rc == 0
    assert "survivors 66" in out
    assert len(calls) == 2


def test_reduction_pass_needs_the_split(capsys, monkeypatch):
    import gpde.cli

    monkeypatch.setattr(gpde.cli, "reduce_form", _wrong_survivor_forms(gpde.cli.reduce_form))
    rc, out, err = run(["reduce", "toy_dim0"], capsys)
    assert rc == 1
    assert "FAIL reduction residual_terms=1 kernel 1, survivors 2" in err


def test_kernel_split_is_checked(capsys, monkeypatch):
    import gpde.density

    monkeypatch.setattr(gpde.density, "reduce_form",
                        _wrong_survivor_forms(gpde.density.reduce_form))
    rc, out, err = run(["boundary", "maxwell_weak", "--kill", "0"], capsys)
    assert rc == 1
    assert "FAIL kernel_split residual_terms=" in err
    assert "[PASS] tangency" in out


def test_check_error_has_a_location(tmp_path, capsys):
    bad = tmp_path / "two_algebras.gpde"
    bad.write_text("base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1; antisymmetrize; }\n"
                   "lie h { dim = 2; }\ncoord A : gh = 1 in g;\ncoord B : gh = 0 in h;\n"
                   "Q A = A + B;\n")
    rc, out, err = run(["check", str(bad)], capsys)
    assert rc == 2
    assert err == f"{bad}:6:9: error: mixing values of different lie algebras\n"


def test_reduce_bad_point_name(capsys):
    with pytest.raises(SystemExit):
        main(["reduce", "toy_dim0", "--at", "nope=1"])


def test_bv_action_ghost_zero(capsys):
    rc, out, _ = run(["bv-action", "toy_dim0", "--ghost", "0"], capsys)
    assert rc == 0
    assert "bv_action: -1/3*u[|]^3" in out


def test_descent_and_identities_maxwell(capsys):
    rc, out, _ = run(["descent", "maxwell_weak", "--order", "1"], capsys)
    assert rc == 0
    assert "descent_theta_4" in out
    rc, out, _ = run(["bv-identities", "maxwell_weak", "--order", "1"], capsys)
    assert rc == 0
    assert "master_vertical" in out and "master_scalar" in out


def test_descent_alone_passes_every_level_on_ym(capsys):
    # descent builds i_s of the vertical two-form without the master identities
    rc, out, err = run(["descent", "ym_weak"], capsys)
    assert (rc, err) == (0, "")
    assert [ln for ln in out.splitlines() if ln.startswith("[")] == [
        f"[PASS] descent_theta_{k} residual_terms=0" for k in range(6)]


def test_report_on_ym_at_base_dim_8(tmp_path, capsys):
    # above every golden: each pull-back builds only the image levels it
    # reads, and every verdict passes up to the top of the descent tower
    from properties import ym_source

    path = tmp_path / "ym8.gpde"
    path.write_text(ym_source(8))
    rc, out, err = run(["report", str(path)], capsys)
    assert (rc, err) == (0, "")
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert lines and all(ln.startswith("[PASS] ") for ln in lines)
    assert "[PASS] descent_theta_9 residual_terms=0" in lines


@pytest.mark.parametrize("text, at", [
    ("base dim = 0; coord u : gh = 0; chi = 0;", []),
    ("base dim = 0; coord u : gh = 0; chi = 0;", ["--at", "u=1"]),
    ("base dim = 0; chi = 0;", []),
])
def test_reduce_refuses_a_zero_two_form_on_a_point(text, at, tmp_path, capsys):
    # d chi = 0 leaves nothing to reduce: a failed check, not a traceback
    path = tmp_path / "zero.gpde"
    path.write_text(text)
    rc, out, err = run(["reduce", str(path)] + at, capsys)
    assert rc == 1
    assert out == ("model: zero\n[FAIL] reduction residual_terms=0  "
                   "(presymplectic two-form is zero)\nresult: FAILED\n")
    assert err == "FAIL reduction residual_terms=0 presymplectic two-form is zero\n"


def test_reduce_refuses_a_vertical_form_without_top_component(tmp_path, capsys):
    path = tmp_path / "zero.gpde"
    path.write_text("base dim = 1; coord u : gh = 0; chi = 0;")
    rc, _, err = run(["reduce", str(path)], capsys)
    assert (rc, err) == (1, "FAIL reduction residual_terms=0 "
                            "vertical two-form has no top component\n")


def test_there_is_no_prolong_verb(capsys):
    # jets are made on demand, never truncated to an order
    with pytest.raises(SystemExit) as info:
        main(["prolong", "ym_weak"])
    assert info.value.code == 2
    assert "invalid choice: 'prolong'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["reduce", "ym_weak"], ["descent", "maxwell_weak"],
                                  ["bv-identities", "maxwell_weak"]])
def test_order_changes_no_output(argv, capsys):
    # jets are made on demand: --order is accepted and read by nothing
    outs = [run(argv + ["--order", order], capsys) for order in ("0", "3")]
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


def test_missing_potential_is_one_diagnostic(capsys):
    # every verb that needs chi reports its absence in the same words
    details = set()
    for verb in ("descent", "bv-identities", "bv-action", "reduce"):
        rc, _, err = run([verb, "ce_aksz"], capsys)
        assert rc == 1
        details.add(err.split(" residual_terms=0 ", 1)[1])
    assert details == {"model has no presymplectic potential\n"}


def test_not_exact_failure_counts_its_residual(tmp_path, capsys):
    # one more term of chi breaks exactness; both verbs that need the
    # hamiltonian report the residual's 2 terms, not 0
    import gpde

    src = (Path(gpde.__file__).parent / "models" / "maxwell_weak.gpde").read_text()
    chi = "*Tr(F[c, d]*d(C));"
    assert chi in src
    bad = tmp_path / "inexact.gpde"
    bad.write_text(src.replace(chi, chi[:-1] + " + theta(2; 0, 1)*Tr(F[2, 3]*d(C));"))
    for verb, name in (("bv-identities", "bv_identities"), ("hamiltonian", "hamiltonian_exists")):
        rc, out, err = run([verb, str(bad)], capsys)
        assert rc == 1
        assert f"[FAIL] {name} residual_terms=2  (" in out
        assert err.startswith(f"FAIL {name} residual_terms=2 ")
        assert "(2 residual terms)" in err


def test_boundary_charge_integrand_counts_its_residual(tmp_path, capsys):
    # broken_ym has no hamiltonian, so its charge integrand fails with the
    # residual of the reduced contraction, counted on the FAIL line
    from properties import broken_ym_source

    bad = tmp_path / "broken_ym.gpde"
    bad.write_text(broken_ym_source())
    rc, out, err = run(["boundary", str(bad), "--kill", "0"], capsys)
    assert rc == 1
    assert "[FAIL] charge_integrand residual_terms=27  (" in out
    assert "(27 residual terms)" in out
    assert err.startswith("FAIL charge_integrand residual_terms=27 ")


def test_reduce_kernel_dependent_q_does_not_descend(tmp_path, capsys):
    # toy_dim0 with Q v = u*u + k: Q varies along the kernel direction k
    import gpde

    src = (Path(gpde.__file__).parent / "models" / "toy_dim0.gpde").read_text()
    assert "coord z : gh = -1;\n" in src and "Q v = u*u;\n" in src
    bad = tmp_path / "kernel_toy.gpde"
    bad.write_text(src.replace("coord z : gh = -1;\n", "coord z : gh = -1;\ncoord k : gh = 0;\n")
                   .replace("Q v = u*u;\n", "Q v = u*u + k;\n"))
    rc, out, err = run(["reduce", str(bad)], capsys)
    assert rc == 1
    assert "[FAIL] reduction" in out and "does not descend" in out
    assert err.startswith("FAIL reduction ")


def test_missing_potential_fails(capsys):
    rc, out, err = run(["descent", "ce_aksz"], capsys)
    assert rc == 1
    assert "FAIL descent" in err


def test_failed_check_exit_and_stderr(tmp_path, capsys):
    bad = tmp_path / "broken.gpde"
    bad.write_text(
        "base dim = 1;\n"
        "coord c : gh = 1;\n"
        "coord b : gh = 2;\n"
        "Q c = b;\n"
        "Q b = theta[0]*b;\n"
        "model broken;\n"
    )
    rc, out, err = run(["check", str(bad)], capsys)
    assert rc == 1
    assert "FAIL nilpotency" in err
    assert "result: FAILED" in out


def test_parse_error_exit_two(tmp_path, capsys):
    su2 = "base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1; antisymmetrize; }\ncoord C : gh = 1 in g;\n"
    uv = "base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\n"
    sources = ["base dim = 1;\ncoord u : gh = 0\nmodel oops;\n",
               "base dim = 1;\nmetric = diag(1/0);\n",
               "base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1/0; antisymmetrize; }\n",
               su2 + "Q C{9} = 0;\n",
               su2 + "Q C{0} = 0;\n",
               su2 + "Q C = [C, C/0];\n",
               uv + "chi = v*d(u/0);\n",
               uv + "chi = v*(u"]
    for i, text in enumerate(sources):
        bad = tmp_path / f"syntax{i}.gpde"
        bad.write_text(text)
        rc, out, err = run(["check", str(bad)], capsys)
        assert rc == 2, text
        assert "error:" in err


def test_unknown_model_name(capsys):
    with pytest.raises(SystemExit):
        main(["check", "no_such_model"])


NO_TOP = "no_top_component.gpde"


@pytest.mark.parametrize("argv,message", [
    (["check", "no_such_model"], "gpde: no file 'no_such_model' and no builtin of that name"),
    (["boundary", "maxwell_weak", "--kill", "a"],
     "gpde: --kill expects comma separated base directions, got 'a'"),
    (["boundary", "maxwell_weak", "--kill", "9"],
     "gpde: no base direction 9 to kill (base directions: 0, 1, 2, 3)"),
    (["boundary", "maxwell_weak", "--kill", "0,4"],
     "gpde: no base direction 4 to kill (base directions: 0, 1, 2, 3)"),
    (["reduce", "toy_dim0", "--at", "zz"], "gpde: --at expects name=value pairs, got 'zz'"),
    (["reduce", "maxwell_weak", "--at", "C{1}[|]=x"], "gpde: bad rational value 'x' in --at"),
    (["reduce", "toy_dim0", "--at", "nope=1"], "gpde: unknown coordinate 'nope' in --at"),
    (["descent", "maxwell_weak", "--order", "-1"], "gpde: --order must be nonnegative, got -1"),
    (["bv-identities", "maxwell_weak", "--order", "-2"],
     "gpde: --order must be nonnegative, got -2"),
    (["reduce", "toy_dim0", "--order", "-1"], "gpde: --order must be nonnegative, got -1"),
    (["boundary", "maxwell_weak", "--kill", ","],
     "gpde: --kill expects comma separated base directions, got ','"),
    (["boundary", "maxwell_weak", "--kill", ""],
     "gpde: --kill expects comma separated base directions, got ''"),
    (["reduce", "toy_dim0", "--at", "u=1,u=2"], "gpde: coordinate 'u' given twice in --at"),
    (["reduce", "toy_dim0", "--at", ","], "gpde: --at expects name=value pairs, got ','"),
    (["reduce", "toy_dim0", "--at", ""], "gpde: --at expects name=value pairs, got ''"),
    # --at is read before the form is found to have no top component
    (["reduce", NO_TOP, "--at", "nope=1"],
     "gpde: unknown coordinate 'nope' in --at (known: none)"),
    (["reduce", NO_TOP, "--at", "bad"], "gpde: --at expects name=value pairs, got 'bad'"),
])
def test_usage_errors_exit_2_with_one_line(argv, message, tmp_path, monkeypatch, capsys):
    # exit code 1 is kept for a failed check; a usage error prints no report
    monkeypatch.chdir(tmp_path)
    (tmp_path / NO_TOP).write_text("base dim = 1; coord u : gh = 0; chi = 0;")
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith(message)
    assert cap.err.count("\n") == 1


def test_latex_format(capsys):
    rc, out, _ = run(["report", "toy_dim0", "--format", "latex"], capsys)
    assert rc == 0
    assert r"\begin{tabular}{lcc}" in out
    assert r"\checkmark" in out


def test_latex_power_of_decorated_generator(capsys):
    rc, out, _ = run(["hamiltonian", "maxwell_weak", "--format", "latex"], capsys)
    assert rc == 0
    assert r"{F^{1}_{0 1}}^{2}" in out
    assert r"}_{0 1}^{2}" not in out
    rc, out, _ = run(["hamiltonian", "toy_dim0", "--format", "latex"], capsys)
    assert r"\mathrm{hamiltonian} = -\tfrac{1}{3}u^{3}" in out


def test_latex_name_with_underscore():
    # a DSL name may contain _; braced, its index is a single subscript
    from gpde import parse_model, poly_latex
    from gpde.algebra import Poly

    m = parse_model("base dim = 1; coord A_b[a] : gh = 0;")
    _, g = m.fibers["A_b"].resolve((0,))
    assert poly_latex(Poly.gen(g)) == "{A_b}_{0}"
    assert poly_latex(Poly.gen(g) * Poly.gen(g)) == "{{A_b}_{0}}^{2}"


def test_latex_level_jet_is_not_its_bundle_coordinate():
    from gpde import JetModel, load_builtin, poly_latex
    from gpde.algebra import Poly

    jm = JetModel(load_builtin("maxwell_weak"))
    F = jm.parent.fibers["F"].resolve((0, 1), 0)[1]
    latex = {J: poly_latex(Poly.gen(jm.jet(F, (2,), J)[1])) for J in ((), (3,))}
    assert latex == {(): "F^{1}_{0 1 2 |}", (3,): "F^{1}_{0 1 2 |3}"}
    assert poly_latex(Poly.gen(jm.jet(F)[1])) == "F^{1}_{0 1 |}" != poly_latex(Poly.gen(F))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gpde.cli", "check", "toy_dim0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: OK" in proc.stdout


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "not UTF-8 text: byte 0xff at offset 0"),
    (b"base dim = 1;\n\xc3(", "not UTF-8 text: byte 0xc3 at offset 14"),
])
def test_undecodable_model_file(tmp_path, capsys, content, message):
    bad = tmp_path / "x.gpde"
    bad.write_bytes(content)
    rc, out, err = run(["check", str(bad)], capsys)
    assert (rc, out, err) == (2, "", f"{bad}: error: {message}\n")


def test_directory_as_model_file(tmp_path, capsys):
    bad = tmp_path / "x.gpde"
    bad.mkdir()
    rc, out, err = run(["check", str(bad)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"{bad}: error: cannot read the model file: ")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.binary())
def test_arbitrary_bytes_get_a_verdict_or_a_diagnostic(content):
    """Any file content exits 0 or 1 with a report, or 2 with a diagnostic;
    never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.gpde")
        with open(path, "wb") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["check", path])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert "error:" in err.getvalue()
