"""The coefficient invariant: every stored coefficient is an int when it is
integral and a Fraction only otherwise, never a float.

Each division site is exercised with int operands, because int / int is a
float in Python: a site that divided directly would pass with Fraction
operands and fail here.  The same goes for every entry point that takes a
scalar from the user, which must refuse a float."""

from fractions import Fraction

import pytest

from gpde.algebra import (
    BASE_X,
    FIBER,
    BackgroundTensors,
    LieAlgebraData,
    Poly,
    Space,
    qdiv,
    rational,
)
from gpde.cli import _parse_point, build_parser
from gpde.jets import JetModel
from gpde.model import solve_hamiltonian
from gpde.parser import builtin_names, load_builtin, parse_model
from gpde.reduction import nullspace, rref

from properties import assert_normal, el_proportional, is_normal


# Q v = u with chi = v du contracts to u^2, of fiber degree k = 2
HALF = ("base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\n"
        "Q v = u;\nchi = v*d(u);\n")


def exact(value, want):
    """value equals want, is in normal form and has want's type."""
    assert value == want and type(value) is type(want) and is_normal(value), (value, want)


# conversion and quotient ----------------------------------------------------


def test_rational_normal_form():
    exact(rational(3), 3)
    exact(rational(Fraction(6, 3)), 2)
    exact(rational(Fraction(-1, 3)), Fraction(-1, 3))
    exact(rational(True), 1)


def test_qdiv_normal_form():
    exact(qdiv(6, 3), 2)
    exact(qdiv(1, 3), Fraction(1, 3))
    exact(qdiv(-7, 2), Fraction(-7, 2))
    exact(qdiv(Fraction(1, 2), Fraction(1, 4)), 2)
    with pytest.raises(ZeroDivisionError):
        qdiv(1, 0)


def test_rational_refuses_float():
    with pytest.raises(TypeError, match="float"):
        rational(0.5)
    with pytest.raises(TypeError):
        qdiv(1.0, 2)


# floats at the entry points -------------------------------------------------


def test_scalar_refuses_float():
    with pytest.raises(TypeError, match="float"):
        Poly.scalar(0.1)


def test_background_tensors_refuse_float():
    with pytest.raises(TypeError, match="float"):
        BackgroundTensors([0.5, 1])


def test_lie_algebra_refuses_float():
    with pytest.raises(TypeError, match="float"):
        LieAlgebraData("u1", 1, [[[0.0]]], [[1]])
    with pytest.raises(TypeError, match="float"):
        LieAlgebraData("u1", 1, [[[0]]], [[1.0]])


def test_constructor_normalises_and_refuses_float():
    sp = Space("t")
    x = sp.coordinate("x", BASE_X, 0, base_index=(0,))
    p = Poly(sp, {((x, 1),): Fraction(4, 2), ((x, 2),): Fraction(1, 2)})
    assert_normal(p)
    exact(p.terms.get(((x, 1),), 0), 2)
    with pytest.raises(TypeError, match="float"):
        Poly(sp, {((x, 1),): 0.5})


@pytest.mark.parametrize("rows", [
    [[2, 1], [1, 0.5]],  # the float would cancel against the first row
    [[0.5, 1]],          # the float is the pivot
    [[1, 0.5]],          # the float is cleared by the pivot
])
def test_elimination_refuses_a_float_wherever_it_sits(rows):
    with pytest.raises(TypeError, match="cannot coerce float into an exact rational"):
        rref(rows)
    with pytest.raises(TypeError, match="cannot coerce float into an exact rational"):
        nullspace(rows, 2)


# every division site, with int operands -------------------------------------


def test_poly_division_by_int():
    sp = Space("t")
    x = Poly.gen(sp.coordinate("x", BASE_X, 0, base_index=(0,)))
    half = x / 2
    assert_normal(half)
    exact(next(iter(half.terms.values())), Fraction(1, 2))
    exact(next(iter((2 * x / 2).terms.values())), 1)
    exact(next(iter((x / Poly.scalar(3)).terms.values())), Fraction(1, 3))


def test_inveta_of_int_diagonal():
    t = BackgroundTensors([2, 1, 1, 1])
    exact(t.inveta(0, 0), Fraction(1, 2))
    exact(t.inveta(1, 1), 1)
    exact(t.inveta(0, 1), 0)
    exact(t.eta(0, 0), 2)
    exact(t.eps([1, 0, 2, 3]), -1)


def test_dsl_literals():
    m = parse_model("base dim = 2;\nmetric = diag(1/3, 6/3);\n"
                    "coord u : gh = 0;\ncoord v : gh = -1;\n"
                    "Q v = 1/3*u + 6/3*u*u;\n", name="literals")
    exact(m.tensors.diag[0], Fraction(1, 3))
    exact(m.tensors.diag[1], 2)
    u = m.fibers["u"].gen()
    q = m.q.coefficient(m.fibers["v"].gen())
    assert_normal(q)
    exact(q.terms.get(((u, 1),), 0), Fraction(1, 3))
    exact(q.terms.get(((u, 2),), 0), 2)


def test_hamiltonian_exact_half():
    m = parse_model(HALF, name="half")
    L = solve_hamiltonian(m)
    assert_normal(L)
    u = m.fibers["u"].gen()
    assert list(L.terms) == [((u, 2),)]
    exact(L.terms.get(((u, 2),), 0), Fraction(-1, 2))


def test_proportionality_scalar_of_int_densities():
    jm = JetModel(parse_model(HALF, name="half"))
    _, g = jm.jet(jm.parent.fibers["u"].gen())
    a = Poly.gen(g) * Poly.gen(g) * Poly.gen(g)
    ok, lam = el_proportional(jm, a, 2 * a)
    assert ok
    exact(lam, Fraction(1, 2))


def test_rref_with_int_pivot():
    red, piv = rref([[2, 1, 4], [0, 0, 3]])
    assert piv == [0, 2]
    assert red == [[1, Fraction(1, 2), 0], [0, 0, 1]]
    for row in red:
        for v in row:
            assert is_normal(v), v
    exact(red[0][1], Fraction(1, 2))
    exact(red[0][0], 1)
    (vec,) = nullspace([[2, 1, 4], [0, 0, 3]], 3)
    assert [type(v) for v in vec] == [Fraction, int, int]
    assert vec == [Fraction(-1, 2), 1, 0]


def test_point_values():
    sp = Space("t")
    u = sp.coordinate("u", FIBER, 0)
    v = sp.coordinate("v", FIBER, 0)
    point = _parse_point("u=4/2, v=-1/3", {"u": u, "v": v})
    exact(point[u], 2)
    exact(point[v], Fraction(-1, 3))


# the reports of every builtin -----------------------------------------------


def _report_polys(rep):
    for value in rep.outputs.values():
        if isinstance(value, Poly):
            yield value
        elif isinstance(value, list):
            for _, p in value:
                yield p


def test_builtin_reports_hold_normal_coefficients():
    """Every Poly of `gpde report <builtin>`, and of the model it is built
    from, stores only normal-form coefficients; the walk meets both ints
    and proper Fractions."""
    seen = set()
    for name in builtin_names():
        m = load_builtin(name)
        args = build_parser().parse_args(["report", name])
        rep = args.run(m, args)
        polys = list(_report_polys(rep))
        polys += [m.q.coefficient(g) for g in m.fiber_coords()]
        if m.chi is not None:
            polys += [m.chi, m.omega()]
        for p in polys:
            assert_normal(p)
            seen.update(type(c) for c in p.terms.values())
    assert seen == {int, Fraction}, f"vacuous walk: coefficient types {seen}"
