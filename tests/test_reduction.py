from fractions import Fraction

import pytest

from gpde.algebra import FIBER, Poly, Space
from gpde.cartan import VectorField, de_rham
from gpde.reduction import (
    PresymplecticMatrix,
    ReductionError,
    kernel_basis,
    nullspace,
    reduce_form,
    rref,
    strip_theta_volume,
)

F = Fraction


def mat(rows):
    return [[F(x) for x in r] for r in rows]


class TestLinearAlgebra:
    def test_rref_known(self):
        red, piv = rref(mat([[2, 4, 0], [1, 2, 1]]))
        assert piv == [0, 2]
        assert red == mat([[1, 2, 0], [0, 0, 1]])

    def test_nullspace_annihilates(self):
        rows = mat([[1, 2, 3, 4], [0, 1, 1, 1], [1, 3, 4, 5]])
        basis = nullspace(rows, 4)
        assert len(basis) == 2
        for v in basis:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0

    def test_nullspace_full_rank(self):
        assert nullspace(mat([[1, 0], [0, 1]]), 2) == []

    def test_rref_empty(self):
        assert rref([]) == ([], [])


@pytest.fixture
def flat_space():
    sp = Space("flat")
    a = sp.coordinate("a", FIBER, 0)
    b = sp.coordinate("b", FIBER, 0)
    k = sp.coordinate("k", FIBER, 0)
    return sp, a, b, k


class TestKernel:
    def test_untouched_coordinate_is_kernel(self, flat_space):
        sp, a, b, k = flat_space
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        kern = kernel_basis(form, [a, b, k])
        assert kern == [[F(0), F(0), F(1)]]

    def test_combination_kernel(self):
        sp = Space("comb")
        p = [sp.coordinate(f"p{i}", FIBER, 0) for i in range(3)]
        c = sp.coordinate("c", FIBER, 1)
        one_form = Poly.zero()
        for g in p:
            one_form = one_form + de_rham(Poly.gen(g))
        form = one_form * de_rham(Poly.gen(c))
        kern = kernel_basis(form, p + [c])
        assert len(kern) == 2
        for v in kern:
            assert sum(v[:3]) == 0 and v[3] == 0

    def test_field_dependent_needs_point(self):
        sp = Space("dep")
        u = sp.coordinate("u", FIBER, 0)
        a = sp.coordinate("a", FIBER, 0)
        b = sp.coordinate("b", FIBER, 0)
        form = Poly.gen(u) * de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        generic = kernel_basis(form, [a, b])
        assert generic == []
        at_zero = kernel_basis(form, [a, b], point={u: F(0)})
        assert len(at_zero) == 2

    def test_matrix_constant_detection(self, flat_space):
        sp, a, b, k = flat_space
        const = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        assert PresymplecticMatrix(const, [a, b]).is_constant()
        dep = Poly.gen(k) * const
        assert not PresymplecticMatrix(dep, [a, b]).is_constant()


class TestReduce:
    def test_toy_model_reduction(self, toy_model):
        m = toy_model
        u = m.fibers["u"].gen()
        v = m.fibers["v"].gen()
        z = m.fibers["z"].gen()
        rm = reduce_form(m.omega(), [u, v, z], s=m.q, survivor_prefix="ty")
        assert len(rm.kernel_vectors) == 1
        assert rm.kernel_vectors[0] == [F(0), F(0), F(1)]
        assert rm.survivor_forms == [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
        wu, wv = rm.survivors
        assert wu.gh == 0 and wv.gh == -1
        expected = de_rham(Poly.gen(wv)) * de_rham(Poly.gen(wu))
        assert rm.reduced_form == expected
        # the evolutionary action descends: s(wu) = 0, s(wv) = wu^2
        assert rm.s_action[wu].is_zero()
        assert rm.s_action[wv] == Poly.gen(wu) * Poly.gen(wu)

    def test_trace_survivor_unit_coefficient(self):
        sp = Space("trace")
        p = [sp.coordinate(f"p{i}", FIBER, 0) for i in range(3)]
        c = sp.coordinate("c", FIBER, 1)
        one_form = Poly.zero()
        for g in p:
            one_form = one_form + de_rham(Poly.gen(g))
        form = one_form * de_rham(Poly.gen(c))
        rm = reduce_form(form, p + [c], survivor_prefix="tr")
        assert rm.survivor_forms == [
            [F(1), F(1), F(1), F(0)],
            [F(0), F(0), F(0), F(1)],
        ]
        w0, w1 = rm.survivors
        assert rm.reduced_form == de_rham(Poly.gen(w0)) * de_rham(Poly.gen(w1))

    def test_mixed_ghost_kernel_refused(self):
        sp = Space("mix")
        a = sp.coordinate("a", FIBER, 0)
        c = sp.coordinate("c", FIBER, 2)
        t = sp.coordinate("t", FIBER, 1)
        form = (de_rham(Poly.gen(a)) - de_rham(Poly.gen(c))) * de_rham(Poly.gen(t))
        with pytest.raises(ReductionError, match="ghost"):
            reduce_form(form, [a, c, t])

    def test_non_descending_field_refused(self, flat_space):
        sp, a, b, k = flat_space
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        s = VectorField(sp, 0, coeffs={a: Poly.gen(k)})
        with pytest.raises(ReductionError, match="descend"):
            reduce_form(form, [a, b, k], s=s)

    def test_volume_stripping(self, maxwell_model):
        m = maxwell_model
        sp = m.space
        u = sp.coordinate("ru", FIBER, 0)
        w = sp.coordinate("rw", FIBER, 0)
        vol = m.theta_volume()
        form = vol * de_rham(Poly.gen(u)) * de_rham(Poly.gen(w))
        stripped = strip_theta_volume(form)
        assert stripped == de_rham(Poly.gen(u)) * de_rham(Poly.gen(w))
        rm = reduce_form(form, [u, w], strip_volume=True, survivor_prefix="vs")
        assert rm.kernel_vectors == []
        assert rm.reduced_form.num_terms() == 1

    def test_outside_universe_differential_refused(self, flat_space):
        sp, a, b, k = flat_space
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        with pytest.raises(ReductionError, match="universe"):
            reduce_form(form, [a, k])

    def test_describe_survivors(self, flat_space):
        sp, a, b, k = flat_space
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        rm = reduce_form(form, [a, b, k], survivor_prefix="ds")
        lines = rm.describe_survivors()
        assert lines[0] == "ds0 = a"
        assert lines[1] == "ds1 = b"

    def test_second_reduction_on_one_model(self):
        from gpde.density import boundary_reduction
        from gpde.jets import JetModel, theta_components
        from gpde.parser import load_builtin

        m = load_builtin("maxwell_weak")
        jm = JetModel(m, 1)
        top = theta_components(jm.vertical_part(jm.omegabar()))[m.n]
        universe = sorted({m.space.coordinate_of(g) for mono in top.terms
                           for g, _ in mono if g.fdeg == 1}, key=lambda g: g._sort)
        first = reduce_form(top, universe, strip_volume=True, s=jm.s)
        names = [g.name for g in first.survivors]
        assert names == [f"w{i}" for i in range(len(names))]
        second = boundary_reduction(m, [0]).reduced
        assert len(second.kernel_vectors) == 2
        assert not set(second.survivors) & set(first.survivors)
        assert [g.name for g in second.survivors] == \
            [f"w{len(names) + i}" for i in range(len(second.survivors))]
