import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpde.algebra import LieAlgebraData, LieValued, Poly, lie_bracket
from gpde.cartan import de_rham
from gpde.model import ModelBuilder, q_square, standard_checks
from gpde.cli import main
from gpde.parser import (
    MAX_NESTING,
    DslError,
    Evaluator,
    builtin_names,
    load_builtin,
    model_to_source,
    parse_model,
    parse_with_diagnostics,
)
from gpde.printing import poly_text

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


FAMILY_NAMES = ["u", "v", "C", "F", "A", "phi"]
COEFFICIENTS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def built_models(draw):
    """A ModelBuilder model over a base of dim 0-3, with an optional metric,
    an optional Lie algebra, one to three fiber families, and random Q rules
    and an optional chi of the right ghost numbers.  The last factor of a
    term is drawn among the generators that complete its ghost number."""
    n = draw(st.integers(0, 3))
    b = ModelBuilder("m", n)
    if n and draw(st.booleans()):
        b.metric(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    lie = None
    if draw(st.booleans()):
        lie = b.lie(draw(st.sampled_from([LieAlgebraData.su2(), LieAlgebraData.abelian(2, "u2")])))
    for name in draw(st.lists(st.sampled_from(FAMILY_NAMES), min_size=1, max_size=3, unique=True)):
        b.fiber(name, gh=draw(st.integers(-2, 2)), slots=draw(st.integers(0, min(n, 2))),
                antisym=draw(st.booleans()), lie=lie if draw(st.booleans()) else None)
    coords = [g for fam in b.fibers.values() for g in fam.coords()]
    factors = coords + list(b.theta.values()) + list(b.x.values())

    def poly(gh, last_choices):
        p = Poly.zero()
        for _ in range(draw(st.integers(1, 3))):
            term = Poly.scalar(draw(st.sampled_from(COEFFICIENTS)))
            for _ in range(draw(st.integers(0, 2))):
                term = term * Poly.gen(draw(st.sampled_from(factors)))
            last = [g for g in last_choices if term.is_zero() or term.gh() + g.gh == gh]
            if not term.is_zero() and last:
                p = p + term * last_choices[draw(st.sampled_from(last))]
        return p

    for g in coords:
        if draw(st.booleans()):
            b.q_rules([(g, poly(g.gh + 1, {f: Poly.gen(f) for f in factors}))])
    if coords and draw(st.booleans()):
        b.chi(poly(n - 1, {u: de_rham(Poly.gen(u)) for u in coords}))
    return b.weak(draw(st.booleans())).build()


def model_structure(m):
    """Everything model_to_source prints, with generators by structural key,
    so that models of two spaces compare."""
    def terms(p):
        return {tuple((g._sort, e) for g, e in mono): c for mono, c in p.terms.items()}

    return (m.n, m.weak, None if m.tensors is None else tuple(m.tensors.diag),
            {k: (lie.dim, lie.f, lie.kappa) for k, lie in m.lies.items()},
            [(fam.name, fam.gh, fam.slots, fam.antisym, fam.lie and fam.lie.name)
             for fam in m.fibers.values()],
            {g._sort: terms(m.q.coefficient(g)) for g in m.fiber_coords()},
            None if m.chi is None else terms(m.chi))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(built_models())
def test_built_models_roundtrip(m):
    src = model_to_source(m)
    again = parse_model(src)
    assert model_structure(again) == model_structure(m)
    assert model_to_source(again) == src


@pytest.mark.parametrize("slots", [8, 9, 11])
def test_families_of_many_slots_roundtrip(slots):
    zeros = ", ".join(["0"] * slots)
    names = ", ".join(f"s{k}" for k in range(slots))
    m = parse_model(f"base dim = 1; coord u : gh = 1; coord F[{names}] : gh = 0; "
                    f"Q F[{zeros}] = u;")
    src = model_to_source(m)
    head = "a, b, c, d, e, f, g, h" + "".join(f", a{k}" for k in range(8, slots))
    assert f"coord F[{head}] : gh = 0;" in src
    again = parse_model(src)
    assert model_structure(again) == model_structure(m)
    assert model_to_source(again) == src


LIE_G = "lie g { dim = 3; f[1][2][3] = 1; antisymmetrize; }\n"
UV2 = "base dim = 2;\ncoord u : gh = 0;\ncoord v : gh = -1;\n"


@pytest.mark.parametrize("text, where, message", [
    ("base dim = 0;\n" + LIE_G + "coord C : gh = 1 in g;\ncoord v : gh = 2;\n"
     "Q C = [C, C] + v;\n", "5:14", "cannot add a scalar and a lie-algebra valued expression"),
    (UV2 + "chi = x[5]*v*d(u);\n", "4:9", "index 5 outside the base range"),
    (UV2 + "chi = x[0, 1]*v*d(u);\n", "4:7", "x takes one base index"),
    (UV2 + "chi = u{1}*v*d(u);\n", "4:7", "'u' carries no lie algebra"),
    ("base dim = 2;\nmetric = diag(1, 1);\ncoord u : gh = 0;\ncoord v : gh = -1;\n"
     "chi = eta[0]*v*d(u);\n", "5:7", "eta takes two indices"),
    ("base dim = 0;\nlie g { f[1][2][3] = 1; }\n", "2:5",
     "lie 'g' does not declare its dimension"),
    ("base dim = 0;\nlie g { dim = 2; f[1][2][3] = 1; }\n", "2:18", "lie index 3 outside 1..2"),
    ("base dim = 0;\nlie g { dim = 3; f[1][1][2] = 1; antisymmetrize; }\n", "2:18",
     "antisymmetrize needs distinct indices"),
    ("base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1; f[2][1][3] = 1; antisymmetrize; }\n",
     "2:34", "conflicting structure constants"),
    ("base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1; antisymmetrize; kappa = diag(1, 1); }\n",
     "2:5", "kappa diagonal length does not match dim"),
    ("base dim = 2;\ncoord F[a, a] : gh = 0;\n", "2:7",
     "index slots must use distinct variables"),
    ("base dim = 2;\ncoord u : gh = 1;\ncoord F[a, b] : gh = 0;\nQ F[a, a] = u;\n", "4:3",
     "left-hand index variables must be distinct"),
    ("base dim = 1;\n" + LIE_G + "coord C : gh = 1 in g;\nQ x[0] = C;\n", "4:3",
     "base coordinates take scalar Q-rules"),
    ("base dim = 0;\n" + LIE_G + "coord C : gh = 1 in g;\nQ C{1} = [C, C];\n", "4:3",
     "a single lie component takes a scalar rule"),
    ("base dim = 0;\n" + LIE_G + "coord C : gh = 1 in g;\ncoord u : gh = 2;\nQ u = [C, C];\n",
     "5:3", "'u' carries no lie algebra"),
    ("base dim = 2;\ncoord u : gh = 1;\ncoord F[a, b] : gh = 0 antisym;\nQ F[0, 0] = u;\n",
     "4:3", "nonzero Q-rule on a vanishing antisymmetric component"),
    ("base dim = 0;\n" + LIE_G + "coord C : gh = 1 in g;\ncoord v : gh = -2;\nchi = v*C;\n",
     "5:1", "chi must be a scalar expression; wrap lie factors in Tr(...)"),
    ("base dim = -1;\n", "1:1", "base dimension must be >= 0"),
    ("base dim = 3;\nmetric = diag(1, 2);\n", "2:1", "metric dimension does not match the base"),
    ("base dim = 1;\ncoord u : gh = 0;\ncoord u : gh = 1;\n", "3:7",
     "fiber family 'u' declared twice"),
    ("base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1; antisymmetrize; dim = 3; }\n", "2:50",
     "lie dimension declared twice"),
    ("base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1; antisymmetrize; kappa = diag(1, 1, 1);"
     " kappa = diag(2, 2, 2); }\n", "2:73", "kappa declared twice"),
    ("base dim = 0;\nlie g { dim = 3; f[1][2][3] = 5; f[1][2][3] = 1; }\n", "2:34",
     "conflicting structure constants"),
    ("base dim = 0;\nlie g { dim = 1; }\nlie h { dim = 1; }\ncoord C : gh = 1 in g in h;\n",
     "4:23", "lie algebra of 'C' declared twice"),
    # the builder's refusals, each at the span of its statement
    ("base dim = 1;\nmetric = diag(1);\nmetric = diag(1);\n", "3:1", "metric declared twice"),
    ("base dim = 0;\nlie g { dim = 1; }\nlie g { dim = 1; }\n", "3:5",
     "lie algebra 'g' declared twice"),
    ("base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\nchi = v*d(u);\nchi = v*d(u);\n",
     "5:1", "chi declared twice"),
    ("base dim = 2;\nmetric = diag(1, 0);\n", "2:1", "metric diagonal entries must be nonzero"),
    ("base dim = 0;\ncoord F[a] : gh = 0;\n", "2:7",
     "family 'F' has index slots but no base indices"),
], ids=["scalar_plus_lie", "index_range", "x_arity", "lie_selector_on_scalar", "eta_arity",
        "lie_no_dim", "lie_index_range", "antisymmetrize_repeated", "conflicting_constants",
        "kappa_length", "slot_names", "lhs_variables", "base_q_lie_valued",
        "lie_component_lie_valued", "scalar_q_lie_valued", "vanishing_component",
        "chi_lie_valued", "negative_base_dim", "metric_length", "repeated_coord",
        "repeated_lie_dim", "repeated_kappa", "conflicting_plain_constants", "second_in",
        "repeated_metric", "repeated_lie", "repeated_chi", "metric_zero_entry",
        "slots_on_dim0"])
def test_diagnostic_message_and_location(text, where, message):
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert [str(d) for d in diags] == [f"<string>:{where}: error: {message}"]


def test_a_plain_structure_constant_may_repeat_its_value():
    # su(2), its six constants written out
    block = "base dim = 0;\nlie g { dim = 3; %s}\n" % "".join(
        f"f[{a}][{b}][{c}] = {s}; " for a, b, c, s in (
            (1, 2, 3, 1), (1, 3, 2, -1), (2, 3, 1, 1), (2, 1, 3, -1), (3, 1, 2, 1), (3, 2, 1, -1)))
    once = parse_model(block)
    twice = parse_model(block.replace("}", "f[1][2][3] = 1; }"))
    assert model_to_source(twice) == model_to_source(once)
    assert twice.lies["g"].f[0][1][2] == 1


@pytest.mark.parametrize("text, where, message", [
    ("base dim = 1;\nQ x[0] = x[0];\n", "2:3", "q-rule for 'x[0]' must have ghost 1, got 0"),
    ("base dim = 2;\ncoord u : gh = 0;\nQ theta[1] = x[0];\n", "3:3",
     "q-rule for 'theta[1]' must have ghost 2, got 0"),
], ids=["x", "theta"])
def test_base_q_rule_is_validated_at_its_statement(text, where, message):
    # the override warning stands beside the error, so the list has both
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert [d.severity for d in diags] == ["warning", "error"]
    assert str(diags[1]) == f"<string>:{where}: error: {message}"
    assert str(diags[0]).startswith(f"<string>:{where}: warning: Q-rule for ")


@pytest.mark.parametrize("rule, same_as", [
    ("Q C = 0;", ""),
    ("Q C = 0*u + [C, C];", "Q C = [C, C];"),
    ("Q C = [C, C]*u;", "Q C = u*[C, C];"),
], ids=["zero", "zero_scalar_first", "lie_times_scalar"])
def test_lie_valued_q_rules_load(rule, same_as):
    head = "base dim = 0;\n" + LIE_G + "coord C : gh = 1 in g;\ncoord u : gh = 0;\n"
    assert model_to_source(parse_model(head + rule)) == model_to_source(parse_model(head + same_as))


def test_adding_a_zero_scalar_to_a_lie_value_is_accepted():
    # eta[0, 1] is 0 on a diagonal metric, so the scalar term drops out
    head = "base dim = 2;\nmetric = diag(1, 1);\n" + LIE_G + "coord C : gh = 1 in g;\n" \
        "coord v : gh = 2;\n"
    assert model_to_source(parse_model(head + "Q C = [C, C] + eta[0, 1]*v;\n")) == \
        model_to_source(parse_model(head + "Q C = [C, C];\n"))


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


def test_a_factor_is_evaluated_once_per_statement(monkeypatch):
    # u holds no index variable, so one value serves every a of the left-hand
    # side; theta[a] is evaluated once per value of a
    calls = Counter()
    eval_factor = Evaluator._eval_factor

    def counted(self, f, env):
        calls[f.parts[0] if f.kind == "ref" else f.kind] += 1
        return eval_factor(self, f, env)

    monkeypatch.setattr(Evaluator, "_eval_factor", counted)
    m = parse_model("base dim = 3; coord u : gh = 0; coord A[a] : gh = 0; Q A[a] = theta[a]*u;")
    assert calls == {"u": 1, "theta": 3}
    assert all(m.q.coefficient(m.fibers["A"].gen((a,))) == Poly.gen(m.theta[a]) *
               Poly.gen(m.fibers["u"].gen()) for a in range(3))
    # the bracket and each C in it hold no index variable either
    calls.clear()
    m = parse_model("base dim = 3;\n" + LIE_G + "coord C : gh = 1 in g;\n"
                    "coord B[a] : gh = 2 in g;\nQ B[a] = theta[a]*[C, C];\n")
    assert calls == {"bracket": 1, "C": 2, "theta": 3}
    C = LieValued(m.lies["g"], [Poly.gen(m.fibers["C"].gen((), k)) for k in range(3)])
    assert all(m.q.coefficient(m.fibers["B"].gen((a,), k)) ==
               Poly.gen(m.theta[a]) * lie_bracket(C, C).components[k]
               for a in range(3) for k in range(3))


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


def test_a_failed_q_statement_stores_none_of_its_rules():
    # line 5 sets u[0] = 2*w and then conflicts at u[1]; nothing of it is
    # stored, so line 6 is the first rule for u[0]
    text = ("base dim = 2;\ncoord u[a] : gh = 0;\ncoord w : gh = 1;\n"
            "Q u[1] = w;\nQ u[a] = 2*w;\nQ u[0] = 3*w;\n")
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert [str(d) for d in diags] == [
        "<string>:5:3: error: conflicting Q-rules for the same coordinate"]


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


def test_q_rule_error_stands_beside_a_chi_error():
    # each Q-rule is validated at its statement, not after the last one
    text = ("base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = 0;\nQ v = u;\n"
            "chi = v*d(u);\n")
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert [str(d) for d in diags] == [
        "<string>:4:3: error: q-rule for 'v' must have ghost 1, got 0",
        "<string>:5:1: error: presymplectic potential must have ghost -1, got 0"]


def test_a_chi_refused_for_its_degree_is_not_declared():
    text = UV + "chi = u*d(u);\nchi = v*d(u);\n"
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert [str(d) for d in diags] == [
        "<string>:4:1: error: presymplectic potential must have ghost -1, got 0"]


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


SU2_C = ("base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1; antisymmetrize; }\n"
         "coord C : gh = 1 in g;\n")
UV = "base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\n"


@pytest.mark.parametrize("rule, message", [
    ("Q C{9} = 0;", "lie component 9 outside 1..3"),
    ("Q C{0} = 0;", "lie component 0 outside 1..3"),
    ("Q Z = 0;", "undeclared symbol 'Z'"),
    ("Q C[0] = 0;", "'C' takes 0 base indices, got 1"),
])
def test_q_target_resolved_like_an_expression_reference(rule, message):
    model, diags = parse_with_diagnostics(SU2_C + rule + "\n")
    assert model is None
    assert [d.message for d in diags] == [message]
    assert (diags[0].span.line, diags[0].span.col) == (4, 3)


@pytest.mark.parametrize("text", [SU2_C + "Q C = [C, C/0];\n", UV + "chi = v*d(u/0);\n",
                                  UV + "chi = v*d(u/(1-1));\n"],
                         ids=["bracket", "d", "zero_sum"])
def test_zero_denominator_inside_an_argument(text):
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert [d.message for d in diags] == ["division by zero"]
    line = text.splitlines()[diags[0].span.line - 1]
    assert line[diags[0].span.col - 1] == "/"


# each statement holds another error as well; the denominator is checked
# when it is read, before any name is resolved, so its error comes first
@pytest.mark.parametrize("text, message", [
    ("base dim = 1;\ncoord u : gh = 0;\nQ A[a] = u/u;\n",
     "division is only defined by numeric constants"),
    ("base dim = 1;\ncoord A[a] : gh = 0;\nQ A = 1/0;\n", "division by zero"),
    (SU2_C + "Q C = w*[C, C/C];\n", "division is only defined by numeric constants"),
    (UV + "Q u = v/u/0;\n", "division is only defined by numeric constants"),
    ("base dim = 0;\nQ x[a] = 1/0;\n", "division by zero"),
], ids=["undeclared_target", "target_arity", "undeclared_factor", "first_of_two_divisions",
        "empty_base"])
def test_a_denominator_is_checked_when_it_is_read(text, message):
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert [d.message for d in diags] == [message]
    # at the first '/' of the statement, the last line
    lines = text.splitlines()
    assert (diags[0].span.line, diags[0].span.col) == (len(lines), lines[-1].index("/") + 1)


def test_numeric_denominator_sums_are_folded():
    half = model_to_source(parse_model(UV + "chi = v*d(u)/2;\n"))
    for chi in ("v*d(u/(1+1))", "v*d(u)/(1+1)", "v*d(u/2)"):
        assert model_to_source(parse_model(UV + f"chi = {chi};\n")) == half


@pytest.mark.parametrize("tail, message", [
    ("chi = v*(u", "expected ')', found 'end of file'"),
    ("chi = v*", "unexpected token 'end of file'"),
    ("chi = v*d(u)", "expected ';', found 'end of file'"),
    ("coord w : gh", "expected '=', found 'end of file'"),
])
def test_end_of_file_is_named_in_diagnostics(tail, message):
    model, diags = parse_with_diagnostics(UV + tail)
    assert model is None
    assert [d.message for d in diags] == [message]


@pytest.mark.parametrize("text, col", [
    ("base dim = 1 # trailing", 24),
    ("base dim = 1 // trailing", 25),
    ("base dim = 1   ", 16),
])
def test_end_of_file_column_after_a_comment_or_blanks(text, col):
    # a comment, like whitespace, moves the column to the end of the line
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert [str(d) for d in diags] == [
        f"<string>:1:{col}: error: expected ';', found 'end of file'"]


def test_eps_arity():
    bad = "base dim = 2;\nmetric = diag(1, 1);\ncoord u : gh = 0;\nchi = eps[0]*u*d(u);\n"
    model, diags = parse_with_diagnostics(bad)
    assert model is None
    assert [str(d) for d in diags] == ["<string>:4:7: error: eps takes 2 indices, got 1"]


def test_eps_is_the_levi_civita_symbol():
    text = ("base dim = 2;\nmetric = diag(-1, 1);\ncoord A[a] : gh = 0;\n"
            "chi = eps[a, b]*theta[a]*d(A[b]);\n")
    assert poly_text(parse_model(text).chi) == "th0*dA[1] - th1*dA[0]"


@pytest.mark.parametrize("text", [
    "model foo;\nbase dim = 1;\ncoord u : gh = 0;\n",
    "base dim = 1;\nmodel foo;\ncoord u : gh = 0;\n",
    "base dim = 1;\ncoord u : gh = 0;\nmodel foo;\n",
])
def test_model_statement_names_the_model_wherever_it_stands(text):
    assert parse_model(text, name="stem").name == "foo"


def test_second_model_statement_is_a_diagnostic():
    model, diags = parse_with_diagnostics("model foo;\nbase dim = 1;\nmodel bar;\n", name="stem")
    assert model is None
    assert [str(d) for d in diags] == ["<string>:3:1: error: model name declared twice"]


def test_second_weak_statement_is_a_diagnostic():
    text = "base dim = 2; weak = true; weak = false; coord u : gh = 0;"
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert [str(d) for d in diags] == ["<string>:1:28: error: weak declared twice"]
    # the value is read first, so a bad second value is reported as such
    model, diags = parse_with_diagnostics("base dim = 2; weak = true; weak = maybe;")
    assert [str(d) for d in diags] == ["<string>:1:35: error: weak takes true or false"]


@pytest.mark.parametrize("text", ["base dim = 1;\ncoord u : gh = 0;\nq u = 1;\n",
                                  "base dim = 1;\nChi = 0;\n",
                                  "BASE dim = 1;\n"])
def test_statement_keywords_are_case_sensitive(text):
    model, diags = parse_with_diagnostics(text)
    assert model is None
    assert any(d.message.startswith("unknown declaration") for d in diags)


@pytest.mark.parametrize("body,factor", [("F[c, d]*d(C) + 2*F[c, d]*d(C)", 3),
                                         ("F[c, d]*d(C) - F[c, d]*d(C)", 0)])
def test_tr_sums_every_term_of_its_argument(body, factor):
    text = open_builtin("ym_weak")
    assert text.count("Tr(F[c, d]*d(C))") == 1
    chi = parse_model(text.replace("Tr(F[c, d]*d(C))", f"Tr({body})")).chi
    assert poly_text(chi) == poly_text(factor * load_builtin("ym_weak").chi)


def test_lexer_error_is_a_diagnostic():
    model, diags = parse_with_diagnostics("base dim = 1; $")
    assert model is None
    assert [str(d) for d in diags] == ["<string>:1:15: error: unexpected character '$'"]


TWO_ALGEBRAS = ("base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1; antisymmetrize; }\n"
                "lie h { dim = 2; }\ncoord A : gh = 1 in g;\ncoord B : gh = 0 in h;\n"
                "coord E : gh = 1 in g;\ncoord G : gh = 2 in h;\n")


@pytest.mark.parametrize("stmt, message", [
    ("Q E = [A, B];", "mixing values of different lie algebras"),
    ("Q A = A + B;", "mixing values of different lie algebras"),
    ("chi = Tr(A*d(B));", "mixing values of different lie algebras"),
    ("Q A = B;", "Q-rule for 'A' must be g-valued"),
    ("Q G = [A, A];", "Q-rule for 'G' must be h-valued"),
])
def test_values_of_two_lie_algebras_do_not_mix(stmt, message):
    model, diags = parse_with_diagnostics(TWO_ALGEBRAS + stmt + "\n")
    assert model is None
    assert [d.message for d in diags] == [message]


@pytest.mark.parametrize("rhs, message", [
    ("[F[a, b], C] + theta[a]*theta[b]*C", "polynomial is not ghost-homogeneous"),
    ("theta[a]*theta[b]*C", "must have ghost 1, got 3"),
], ids=["inhomogeneous", "wrong_ghost"])
def test_bad_rule_on_antisymmetric_coordinate_is_reported_once(rhs, message):
    text = open_builtin("ym_weak")
    rule = next(line for line in text.splitlines() if line.startswith("Q F"))
    model, diags = parse_with_diagnostics(text.replace(rule, f"Q F[a, b] = {rhs};"))
    assert model is None
    assert len(diags) == 1 and message in diags[0].message
    line = text.splitlines().index(rule) + 1
    assert (diags[0].span.line, diags[0].span.col) == (line, 3)


@pytest.mark.parametrize("chi, message", [
    ("v*d(u) + d(u)", "polynomial is not ghost-homogeneous"),
    ("v*u", "presymplectic potential must be a one-form"),
    ("u*d(u)", "presymplectic potential must have ghost -1, got 0"),
], ids=["inhomogeneous", "not_one_form", "wrong_ghost"])
def test_chi_errors_carry_the_statement_location(chi, message):
    model, diags = parse_with_diagnostics(UV + f"chi = {chi};\nfoo;\n")
    assert model is None
    # the bad chi is skipped like any failing statement, so parsing goes on
    assert [str(d) for d in diags] == [f"<string>:4:1: error: {message}",
                                       "<string>:5:1: error: unknown declaration 'foo'"]


def test_semicolon_inside_theta_ends_no_statement():
    text = open_builtin("ym_weak")
    chi = next(line for line in text.splitlines() if line.startswith("chi ="))
    model, diags = parse_with_diagnostics(text.replace(chi, "chi = theta(99999; a)*v;"))
    assert model is None
    assert [d.message for d in diags] == ["theta(99999; ...) takes 99999 indices, got 1"]
    # any other ';' still ends the statement, even inside an unclosed '('
    model, diags = parse_with_diagnostics("base dim = 0;\ncoord u : gh = 0;\nchi = (u;\nfoo;\n")
    assert [d.message for d in diags] == ["expected ')', found ';'", "unknown declaration 'foo'"]


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_lie_dimension_below_one_is_refused(dim):
    # at the dim value: -1 got "kappa diagonal length does not match dim",
    # and 0 was accepted
    bad = f"base dim = 0;\nlie g {{ dim = {dim}; }}\ncoord u : gh = 0;\n"
    model, diags = parse_with_diagnostics(bad)
    assert model is None
    assert [d.message for d in diags] == ["lie dimension must be at least 1"]
    assert bad.splitlines()[1][diags[0].span.col - 1:].startswith(dim)


def _builtin_token_texts():
    def tokens(text):
        return re.findall(r"[A-Za-z_]\w*|\d+|\S", re.sub(r"#[^\n]*", "", text))

    return {name: tokens(open_builtin(name)) for name in builtin_names()}


BUILTIN_TOKENS = _builtin_token_texts()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_token_mutants_give_a_model_or_diagnostics(data):
    """Deleting, duplicating and swapping tokens of a builtin source gives a
    model or (None, diagnostics) with an error, never another exception.
    Tokens are rejoined with spaces, so no new literal appears."""
    toks = list(BUILTIN_TOKENS[data.draw(st.sampled_from(sorted(BUILTIN_TOKENS)))])
    edits = data.draw(st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "swap"]),
                                         st.integers(0, len(toks) - 1),
                                         st.integers(0, len(toks) - 1)),
                               min_size=1, max_size=4))
    for op, i, j in edits:
        i, j = i % len(toks), j % len(toks)
        if op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        else:
            toks[i], toks[j] = toks[j], toks[i]
    model, diags = parse_with_diagnostics(" ".join(toks))
    assert model is not None or any(d.severity == "error" for d in diags)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.text())
def test_arbitrary_text_gives_a_model_or_diagnostics(text):
    model, diags = parse_with_diagnostics(text)
    assert model is not None or any(d.severity == "error" for d in diags)


@pytest.mark.parametrize("digit", ["²", "٣", "①"])
def test_int_literals_are_ascii_digits(digit):
    model, diags = parse_with_diagnostics(f"base dim = {digit};")
    assert model is None
    assert [str(d) for d in diags] == [
        f"<string>:1:12: error: unexpected character {digit!r}",
        "<string>:1:13: error: expected 'int', found ';'"]


@pytest.mark.parametrize("line, col", [
    ("\tcoord u : gh = $;\n", 17),       # a tab is one column
    ("coord u : gh = $;\r\n", 16),       # so is a \r, before a newline
    ("coord u\r\t: gh = $;\r\n", 17),    # or not
])
def test_tab_and_carriage_return_columns(line, col):
    model, diags = parse_with_diagnostics("base dim = 1;\r\n" + line)
    assert [str(d) for d in diags] == [
        f"<string>:2:{col}: error: unexpected character '$'",
        f"<string>:2:{col + 1}: error: expected 'int', found ';'"]


@pytest.mark.parametrize("tail", ["# end", "//", "\n// end", "\n#"])
def test_comment_at_end_of_file_without_newline(tail):
    assert list(parse_model("base dim = 1;\ncoord u : gh = 0;" + tail).fibers) == ["u"]


def test_unexpected_character_inside_a_word():
    # it splits the word; a non-ASCII digit inside a word is part of it, and
    # only at the start is it one unexpected character
    model, diags = parse_with_diagnostics("base dim = 1;\ncoord u$v : gh = 0;\n")
    assert [str(d) for d in diags] == ["<string>:2:8: error: unexpected character '$'",
                                       "<string>:2:9: error: expected ':', found 'v'"]
    model, diags = parse_with_diagnostics("base dim = 1;\ncoord ²u : gh = 0;\n")
    assert [str(d) for d in diags] == ["<string>:2:7: error: unexpected character '²'"]
    assert list(parse_model("base dim = 1;\ncoord u² : gh = 0;\n").fibers) == ["u²"]


def test_unicode_letter_names_tokenize():
    model = parse_model("base dim = 0;\ncoord ψ2 : gh = 0;\ncoord v : gh = -1;\n"
                        "Q v = ψ2*ψ2;\n")
    assert [fam.name for fam in model.fibers.values()] == ["ψ2", "v"]


def test_sum_over_an_empty_base_is_zero():
    model = parse_model("base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\n"
                        "Q v = u*u + x[a]*theta[a];\n")
    assert "Q v = u*u;" in model_to_source(model)


NESTED_HEAD = "base dim = 1;\ncoord u : gh = 0;\ncoord c : gh = 1;\n"
NESTED = {  # kind -> (the opening character of a level, the body at n levels)
    "parentheses": ("(", lambda n: "Q u = " + "(" * n + "c" + ")" * n + ";"),
    "unary_minus": ("-", lambda n: "Q u = " + "-" * n + "c;"),
    "differential": ("d", lambda n: "chi = " + "d(" * n + "u" + ")" * n + ";"),
    "product_operand": ("(", lambda n: "Q u = " + "c*(" * n + "1" + ")" * n + ";"),
}


def _from_frames_deep(depth, fn):
    return fn() if depth == 0 else _from_frames_deep(depth - 1, fn)


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_beyond_the_limit_is_a_diagnostic(kind, tmp_path, capsys):
    opener, make = NESTED[kind]
    body = make(3000)
    # the diagnostic names the opener of level MAX_NESTING + 1
    col = [i for i, ch in enumerate(body) if ch == opener][MAX_NESTING] + 1
    model, diags = parse_with_diagnostics(NESTED_HEAD + body)
    assert model is None
    assert [str(d) for d in diags] == [
        f"<string>:4:{col}: error: expression nested more than {MAX_NESTING} levels deep"]
    path = tmp_path / "deep.gpde"
    path.write_text(NESTED_HEAD + body)
    assert main(["check", str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"{path}:4:{col}: error: expression nested more than " \
        f"{MAX_NESTING} levels deep\n"


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_at_the_limit_loads_from_deep_in_the_stack(kind, tmp_path, capsys):
    path = tmp_path / "deep.gpde"
    path.write_text(NESTED_HEAD + NESTED[kind][1](MAX_NESTING))
    assert _from_frames_deep(200, lambda: main(["check", str(path)])) in (0, 1)
    assert capsys.readouterr().err == ""


def test_long_operator_chains_are_not_nesting():
    """A chain of sums or products is read in one loop, however long it is,
    and is distributed as it is read, without recursion."""
    head = "base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\n"
    for rule, want in (("+".join(["u*u"] * 3000), "Q v = 3000*u*u;"),
                       ("u*u" + "-u*u" * 2999, "Q v = -2998*u*u;"),
                       ("*".join(["1"] * 3000) + "*u*u", "Q v = u*u;"),
                       ("u*u" + "/2*2" * 3000 + "/4", "Q v = 1/4*u*u;")):
        assert want in model_to_source(parse_model(head + f"Q v = {rule};\n"))
