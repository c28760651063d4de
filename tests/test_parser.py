import pytest

from gpde.model import q_square, standard_checks
from gpde.parser import (
    DslError,
    builtin_names,
    load_builtin,
    model_to_source,
    parse_model,
    parse_with_diagnostics,
)

from conftest import build_ce, build_maxwell, build_toy, build_ym


MINI = """
base dim = 2;
coord u : gh = 0;
coord v : gh = -1;
Q v = u*u;
chi = theta(1; a)*x[a]*u*d(u);
"""


def test_builtin_corpus_complete():
    assert builtin_names() == ["ce_aksz", "maxwell_weak", "toy_dim0", "ym_weak"]


@pytest.mark.parametrize("name,builder", [
    ("toy_dim0", build_toy),
    ("ce_aksz", build_ce),
    ("maxwell_weak", build_maxwell),
    ("ym_weak", build_ym),
])
def test_builtins_match_programmatic_models(name, builder):
    parsed = load_builtin(name)
    direct = builder()
    assert model_to_source(parsed) == model_to_source(direct)


@pytest.mark.parametrize("name", ["toy_dim0", "ce_aksz", "maxwell_weak", "ym_weak"])
def test_parse_print_parse_fixpoint(name):
    m = load_builtin(name)
    src = model_to_source(m)
    again = parse_model(src, name=m.name)
    assert model_to_source(again) == src


def test_byte_deterministic_parse():
    text = open_builtin("ym_weak")
    a = parse_model(text, name="ym_weak")
    b = parse_model(text, name="ym_weak")
    assert model_to_source(a) == model_to_source(b)


def open_builtin(name):
    from importlib import resources

    return resources.files("gpde").joinpath(f"models/{name}.gpde").read_text()


def test_parsed_ce_is_nilpotent():
    m = load_builtin("ce_aksz")
    assert all(p.is_zero() for p in q_square(m).values())
    assert all(c.passed for c in standard_checks(m))


def test_simple_model_evaluates_sums():
    m = parse_model(MINI)
    # chi = sum_a theta(1; a) x^a v du with n = 2
    assert m.chi is not None and m.chi.fdeg() == 1
    assert m.chi.num_terms() == 2


def test_triple_bracket_is_rejected_at_second_comma():
    bad = "base dim = 0;\ncoord C : gh = 1;\nQ C = [C, C, C];\n"
    with pytest.raises(DslError) as err:
        parse_model(bad)
    d = err.value.diagnostics[0]
    assert "exactly two" in d.message
    assert d.span.line == 3
    assert bad.splitlines()[2][d.span.col - 1] == ","
    assert bad.splitlines()[2][:d.span.col - 1].count(",") == 1


def test_incomplete_structure_constants_diagnostic():
    bad = """
base dim = 2;
lie g { dim = 3; f[1][2][3] = 1; }
coord C : gh = 1 in g;
"""
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert any("not antisymmetric" in d.message for d in err.value.diagnostics)
    assert any(d.hint and "antisymmetrize" in d.hint for d in err.value.diagnostics)


def test_degree_mismatch_diagnostic():
    bad = "base dim = 0;\ncoord u : gh = 0;\ncoord w : gh = 3;\nQ w = u*u;\n"
    model, diags = parse_with_diagnostics(bad)
    assert model is None
    assert any("ghost" in d.message for d in diags)


def test_undeclared_symbol():
    with pytest.raises(DslError) as err:
        parse_model("base dim = 1;\ncoord u : gh = 0;\nQ u = w;\n")
    assert any("undeclared" in d.message for d in err.value.diagnostics)


def test_single_unbound_index_is_an_error():
    bad = "base dim = 2;\ncoord u : gh = 0;\nchi = theta[a]*u*d(u);\n"
    # a appears once: theta[a] alone cannot be summed
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert any("appears once" in d.message for d in err.value.diagnostics)


def test_eta_requires_metric():
    bad = "base dim = 2;\ncoord u : gh = 0;\nchi = eta[a, a]*u*d(u);\n"
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert any("metric" in d.message for d in err.value.diagnostics)


def test_tr_needs_two_lie_factors():
    bad = """
base dim = 4;
metric = diag(1, 1, 1, 1);
lie g { dim = 3; f[1][2][3] = 1; antisymmetrize; }
coord C : gh = 1 in g;
chi = theta(3; a, b, c)*eta[a, b]*Tr(C)*x[c];
"""
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert any("exactly two lie" in d.message for d in err.value.diagnostics)


def test_lie_product_outside_tr_rejected():
    bad = """
base dim = 0;
lie g { dim = 3; f[1][2][3] = 1; antisymmetrize; }
coord C : gh = 1 in g;
coord B : gh = -1 in g;
Q B = C*C;
"""
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert any("use Tr" in d.message for d in err.value.diagnostics)


def test_division_by_expression_rejected():
    bad = "base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\nQ v = u/u;\n"
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert any("numeric constants" in d.message for d in err.value.diagnostics)


@pytest.mark.parametrize("bad, col", [
    ("base dim = 1;\nmetric = diag(1/0);\n", 17),
    ("base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1/0; antisymmetrize; }\n", 33),
], ids=["metric", "structure_constant"])
def test_zero_denominator_in_rational_literal(bad, col):
    with pytest.raises(DslError) as err:
        parse_model(bad)
    first = err.value.diagnostics[0]
    assert first.message == "division by zero"
    assert (first.span.line, first.span.col) == (2, col)


def test_error_inside_lie_block_skips_the_whole_block():
    bad = ("base dim = 0;\n"
           "lie g { dim = 3; f[1][2][3] = 1/0; antisymmetrize; kappa = diag(1, 1, 1); }\n"
           "coord u : gh = 0;\n")
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert [d.message for d in err.value.diagnostics] == ["division by zero"]


def test_error_after_a_complete_statement_keeps_the_next_one():
    bad = "base dim = 1;\nbase dim = 2;\nfoo;\n"
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert [d.message for d in err.value.diagnostics] == [
        "base dimension declared twice", "unknown declaration 'foo'"]


def test_base_override_warns():
    text = "base dim = 1;\nQ x[0] = 2*theta[0];\ncoord u : gh = 0;\n"
    model, diags = parse_with_diagnostics(text)
    assert model is not None
    assert any(d.severity == "warning" and "canonical" in d.message for d in diags)
    canonical = "base dim = 1;\nQ x[0] = theta[0];\n"
    model2, diags2 = parse_with_diagnostics(canonical)
    assert model2 is not None and not diags2


def test_conflicting_q_rules():
    bad = "base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\nQ v = u*u;\nQ v = 2*u*u;\n"
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert any("conflicting" in d.message.lower() for d in err.value.diagnostics)


def test_reserved_coordinate_name():
    with pytest.raises(DslError) as err:
        parse_model("base dim = 1;\ncoord theta : gh = 0;\n")
    assert any("reserved" in d.message for d in err.value.diagnostics)


def test_theta_basis_arity():
    bad = "base dim = 2;\ncoord u : gh = 0;\nchi = theta(2; a)*u*d(u);\n"
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert any("takes 2 indices" in d.message for d in err.value.diagnostics)


def test_chi_twice():
    bad = ("base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\n"
           "chi = v*d(u);\nchi = v*d(u);\n")
    with pytest.raises(DslError) as err:
        parse_model(bad)
    assert any("twice" in d.message for d in err.value.diagnostics)


def test_base_dim_must_come_first():
    with pytest.raises(DslError) as err:
        parse_model("coord u : gh = 0;\nbase dim = 1;\n")
    assert any("declared first" in d.message for d in err.value.diagnostics)


def test_componentwise_rules_roundtrip():
    m = build_ce()
    src = model_to_source(m)
    assert "Q C{1} =" in src
    m2 = parse_model(src, name="ce_aksz")
    assert model_to_source(m2) == src
