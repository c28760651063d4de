import random
from fractions import Fraction

import pytest

from gpde.algebra import FIBER, Poly, Space, theta_basis
from gpde.cartan import VectorField, d_vertical, de_rham, interior
from gpde.jets import JetModel, boundary_reduction
from gpde.model import restrict_to_submanifold
from gpde.parser import load_builtin
from gpde.printing import equations
from gpde.reduction import (
    ReducedModel,
    ReductionError,
    coefficient_rows,
    form_universe,
    nullspace,
    reduce_form,
    rref,
)
from properties import (
    assemble_levels,
    reference_nullspace,
    reference_rref,
    reference_s_action,
    theta_components,
    theta_top_coefficient,
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

    def test_float_zero_refused(self):
        with pytest.raises(TypeError, match="cannot coerce float"):
            rref([[1, 0.0]])
        with pytest.raises(TypeError, match="cannot coerce float"):
            nullspace([[0.0, 1]], 2)


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
        kern = reduce_form(form, [a, b, k]).kernel_vectors
        assert kern == [[F(0), F(0), F(1)]]

    def test_combination_kernel(self):
        sp = Space("comb")
        p = [sp.coordinate(f"p{i}", FIBER, 0) for i in range(3)]
        c = sp.coordinate("c", FIBER, 1)
        one_form = Poly.zero()
        for g in p:
            one_form = one_form + de_rham(Poly.gen(g))
        form = one_form * de_rham(Poly.gen(c))
        kern = reduce_form(form, p + [c]).kernel_vectors
        assert len(kern) == 2
        for v in kern:
            assert sum(v[:3]) == 0 and v[3] == 0

    def test_field_dependent_needs_point(self):
        sp = Space("dep")
        u = sp.coordinate("u", FIBER, 0)
        a = sp.coordinate("a", FIBER, 0)
        b = sp.coordinate("b", FIBER, 0)
        form = Poly.gen(u) * de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        generic = reduce_form(form, [a, b]).kernel_vectors
        assert generic == []
        at_zero = reduce_form(form, [a, b], point={u: F(0)}).kernel_vectors
        assert len(at_zero) == 2

    def test_rotating_kernel_refused(self):
        # the kernel at u is spanned by (0, -u, 1): one direction at every
        # point, but no constant one
        sp = Space("rot")
        u, a, b, c = (sp.coordinate(n, FIBER, 0) for n in "uabc")
        form = de_rham(Poly.gen(a)) * (de_rham(Poly.gen(b))
                                       + Poly.gen(u) * de_rham(Poly.gen(c)))
        with pytest.raises(ReductionError, match="not constant"):
            reduce_form(form, [a, b, c])
        # at u = 2 the kernel is the line of (0, -2, 1), in reduced row echelon form
        at_two = reduce_form(form, [a, b, c], point={u: F(2)})
        assert at_two.kernel_vectors == [[F(0), F(1), F(-1, 2)]]

    def test_rank_drop_on_a_hypersurface_reduces(self):
        # degenerate at u = 1 only: the generic kernel is empty
        sp = Space("drop")
        u, a, b = (sp.coordinate(n, FIBER, 0) for n in "uab")
        form = (Poly.gen(u) - 1) * de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        rm = reduce_form(form, [a, b])
        assert rm.kernel_vectors == []
        w0, w1 = rm.survivors
        assert rm.reduced_form == \
            (Poly.gen(u) - 1) * de_rham(Poly.gen(w0)) * de_rham(Poly.gen(w1))
        assert rm.split_residual().is_zero()

    def test_field_dependent_kernel_certified(self):
        sp = Space("cert")
        u, a, b, k = (sp.coordinate(n, FIBER, 0) for n in "uabk")
        form = Poly.gen(u) * de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        assert reduce_form(form, [a, b, k]).kernel_vectors == [[F(0), F(0), F(1)]]

    def test_odd_coordinates_are_set_to_zero(self, flat_space):
        sp, a, b, k = flat_space
        c = sp.coordinate("c", FIBER, 1)
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b)) \
            + Poly.gen(c) * de_rham(Poly.gen(a)) * de_rham(Poly.gen(k))
        assert reduce_form(form, [a, b, k]).kernel_vectors == [[F(0), F(0), F(1)]]


def interior_columns(form, universe):
    """One interior() contraction per unit field, the definition the
    one-pass coefficient_rows must reproduce, column by column."""
    return [interior(VectorField(form.space, -g.gh, coeffs={g: 1}), form) for g in universe]


def assert_columns_match(form, universe):
    got = [{} for _ in universe]
    for mono, row in coefficient_rows(form, universe).items():
        for A, c in row.items():
            got[A][mono] = c
    want = interior_columns(form, universe)
    assert got == [c.terms for c in want]


class TestPresymplecticColumns:
    @pytest.mark.parametrize("name", ["maxwell_weak", "ym_weak"])
    def test_builtin_columns_match_interior(self, name):
        jm = JetModel(load_builtin(name))
        top = jm.vertical_top()
        universe = form_universe(top)
        om = assemble_levels(jm, jm.vertical_omegabar_levels())
        block = theta_components(om)[jm.parent.n]
        for form in (block, top):
            assert_columns_match(form, universe)

    def test_powers_and_both_differentials(self):
        # dc is even (c odd), so dc^2 occurs; a has a horizontal and a
        # vertical differential in one monomial; du lies outside the universe
        sp = Space("cols")
        a = sp.coordinate("a", FIBER, 0)
        c = sp.coordinate("c", FIBER, 1)
        u = sp.coordinate("u", FIBER, 0)
        dc = de_rham(Poly.gen(c))
        form = (Poly.gen(u) * dc * dc
                + Poly.gen(c) * de_rham(Poly.gen(a)) * d_vertical(Poly.gen(a))
                + de_rham(Poly.gen(u)) * dc * Poly.gen(c) * 3)
        assert any(e == 2 for mono in form.terms for g, e in mono if g.fdeg)
        assert_columns_match(form, [a, c])

    def test_random_forms(self):
        from properties import playground, rand_poly

        sp, pool = playground()
        rng = random.Random(43)
        powered = 0
        for _ in range(200):
            form = rand_poly(rng, pool, terms=4, form_chance=0.7) \
                * de_rham(Poly.gen(rng.choice(pool)))
            if form.space is None:
                continue
            powered += any(e > 1 for mono in form.terms for g, e in mono if g.fdeg)
            universe = sorted(rng.sample(pool, rng.randint(1, len(pool))),
                              key=lambda g: g._sort)
            assert_columns_match(form, universe)
        assert powered, "no random form holds a power of a differential"


class TestReduce:
    def test_toy_model_reduction(self, toy_model):
        m = toy_model
        u = m.fibers["u"].gen()
        v = m.fibers["v"].gen()
        z = m.fibers["z"].gen()
        rm = reduce_form(m.omega(), [u, v, z], s=m.q)
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
        rm = reduce_form(form, p + [c])
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

    def test_field_varying_along_second_kernel_direction_refused(self):
        # kernel spanned by k1 and k2; s(a) = k2 is constant along k1 and
        # varies along k2 only
        sp = Space("two_kernels")
        a, b, k1, k2 = (sp.coordinate(n, FIBER, 0) for n in ("a", "b", "k1", "k2"))
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        s = VectorField(sp, 0, coeffs={a: Poly.gen(k2)})
        with pytest.raises(ReductionError, match="does not descend"):
            reduce_form(form, [a, b, k1, k2], s=s)

    def test_field_off_the_kernel_descends(self):
        sp = Space("off_kernel")
        a, b, k1, k2 = (sp.coordinate(n, FIBER, 0) for n in ("a", "b", "k1", "k2"))
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        s = VectorField(sp, 0, coeffs={a: Poly.gen(b) * Poly.gen(b), b: Poly.gen(a)})
        rm = reduce_form(form, [a, b, k1, k2], s=s)
        assert rm.kernel_vectors == [[F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]]
        wa, wb = rm.survivors
        assert rm.s_action[wa] == Poly.gen(wb) * Poly.gen(wb)
        assert rm.s_action[wb] == Poly.gen(wa)

    def test_volume_stripping(self, maxwell_model):
        m = maxwell_model
        sp = m.space
        u = sp.coordinate("ru", FIBER, 0)
        w = sp.coordinate("rw", FIBER, 0)
        vol = theta_basis([m.theta[a] for a in m.base_indices], ())
        form = vol * de_rham(Poly.gen(u)) * de_rham(Poly.gen(w))
        stripped = theta_top_coefficient(m, form)
        assert stripped == de_rham(Poly.gen(u)) * de_rham(Poly.gen(w))
        rm = reduce_form(stripped, [u, w])
        assert rm.kernel_vectors == []
        assert rm.reduced_form.num_terms() == 1

    def test_no_field_gives_no_s_action(self, flat_space):
        sp, a, b, k = flat_space
        rm = reduce_form(de_rham(Poly.gen(a)) * de_rham(Poly.gen(b)), [a, b, k])
        assert rm.s_action is None

    def test_wrong_survivor_form_fails_the_split_check(self, flat_space):
        sp, a, b, k = flat_space
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        rm = reduce_form(form, [a, b, k])
        assert rm.split_residual().is_zero()
        forms = [rm.survivor_forms[0], [F(0), F(1), F(1)]]
        wrong = ReducedModel(sp, rm.survivors, forms, rm.kernel_vectors,
                             rm.reduced_form, rm.universe, rm.form, rm.section)
        assert wrong.split_residual() == \
            de_rham(Poly.gen(a)) * de_rham(Poly.gen(k))

    def test_survivor_equations_are_built_once(self, flat_space):
        sp, a, b, k = flat_space
        rm = reduce_form(de_rham(Poly.gen(a)) * de_rham(Poly.gen(b)), [a, b, k])
        first = rm.survivor_equations
        assert rm.split_residual().is_zero()
        assert rm.survivor_equations is first

    def test_outside_universe_differential_refused(self, flat_space):
        sp, a, b, k = flat_space
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        with pytest.raises(ReductionError, match="universe"):
            reduce_form(form, [a, k])

    def test_describe_survivors(self, flat_space):
        sp, a, b, k = flat_space
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        rm = reduce_form(form, [a, b, k])
        lines = equations(rm.survivor_equations)
        assert lines[0] == "w0 = a"
        assert lines[1] == "w1 = b"

    def test_second_reduction_on_one_model(self):
        m = load_builtin("maxwell_weak")
        jm = JetModel(m)
        top = jm.vertical_top()
        universe = sorted({m.space.coordinate_of(g) for mono in top.terms
                           for g, _ in mono if g.fdeg == 1}, key=lambda g: g._sort)
        first = reduce_form(top, universe, s=jm.s)
        names = [g.name for g in first.survivors]
        assert names == [f"w{i}" for i in range(len(names))]
        second = boundary_reduction(m, [0]).reduced
        assert len(second.kernel_vectors) == 2
        assert not set(second.survivors) & set(first.survivors)
        assert [g.name for g in second.survivors] == \
            [f"w{len(names) + i}" for i in range(len(second.survivors))]


class TestSurvivorNumbering:
    @staticmethod
    def names(sp, a, b, k):
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b))
        return [g.name for g in reduce_form(form, [a, b, k]).survivors]

    def test_two_reductions_in_one_space_number_on(self, flat_space):
        assert self.names(*flat_space) == ["w0", "w1"]
        assert self.names(*flat_space) == ["w2", "w3"]

    def test_a_user_coordinate_is_numbered_past(self, flat_space):
        flat_space[0].coordinate("w7", FIBER, 0)
        assert self.names(*flat_space) == ["w8", "w9"]

    def test_only_a_decimal_suffix_is_a_survivor_number(self, flat_space):
        # "²".isdigit() holds, but int("²") raises
        flat_space[0].coordinate("w²", FIBER, 0)
        assert self.names(*flat_space) == ["w0", "w1"]

    def test_the_second_call_reads_only_new_generators(self, flat_space):
        sp, a, *_ = flat_space
        assert self.names(*flat_space) == ["w0", "w1"]
        # a generator the first call read is not read again: renamed to w50
        # it does not move the numbering, while a new w20 does
        a.name = "w50"
        sp.coordinate("w20", FIBER, 0)
        assert self.names(*flat_space) == ["w21", "w22"]


def _top_block(name, kill=None):
    """The theta-volume block that reduce (kill None) or boundary --kill
    reduces, with its universe and evolutionary field."""
    m = load_builtin(name)
    if kill is not None:
        m = restrict_to_submanifold(m, [a for a in m.base_indices if a != kill])
    if m.n == 0:
        return m.omega(), m.fiber_coords(), m.q
    jm = JetModel(m)
    top = jm.vertical_top()
    return top, form_universe(top), jm.s


@pytest.mark.parametrize("kill", [None, 0], ids=["reduce", "boundary_kill0"])
@pytest.mark.parametrize("name", ["maxwell_weak", "ym_weak"])
def test_sparse_kernel_matches_dense_reference(name, kill):
    top, universe, _ = _top_block(name, kill)
    rows = [[F(row.get(A, 0)) for A in range(len(universe))]
            for row in coefficient_rows(top, universe).values()]
    want = reference_nullspace(rows, len(universe))
    assert want, "vacuous: the block has no kernel"
    # reduce_form keeps the kernel in reduced row echelon form
    assert reduce_form(top, universe).kernel_vectors == reference_rref(want)[0]


class TestKernelConstancySign:
    """A kernel direction that pairs two odd coordinates p and r, with an odd
    q sorting between them: in q*(p + r) = -p*q + q*r the partial along r
    crosses the odd q and the one along p does not, so the image is constant
    along e_p - e_r only with the left-Leibniz sign of derive()."""

    @pytest.fixture
    def setup(self):
        sp = Space("koszul")
        a, b = (sp.coordinate(n, FIBER, 0) for n in "ab")
        p, q, r = (sp.coordinate(n, FIBER, 1) for n in "pqr")
        dpr = de_rham(Poly.gen(p)) + de_rham(Poly.gen(r))
        form = de_rham(Poly.gen(a)) * de_rham(Poly.gen(b)) + dpr * dpr
        return sp, a, b, p, q, r, form

    def test_cancelling_partials_descend(self, setup):
        sp, a, b, p, q, r, form = setup
        image = Poly.gen(q) * (Poly.gen(p) + Poly.gen(r))
        assert image.terms == {((p, 1), (q, 1)): -1, ((q, 1), (r, 1)): 1}
        kfield = VectorField(sp, -1, coeffs={p: 1, r: -1})
        assert kfield.apply(image).is_zero()
        rm = reduce_form(form, [a, b, p, r], s=VectorField(sp, 0, coeffs={a: image}))
        assert rm.kernel_vectors == [[0, 0, 1, -1]]
        wa, wb, wpr = rm.survivors
        assert rm.survivor_forms[2] == [0, 0, 1, 1]
        # the section: each free column to its survivor, the pivot p to 0
        assert rm.section == {a: Poly.gen(wa), b: Poly.gen(wb), p: Poly.zero(),
                              r: Poly.gen(wpr)}
        assert rm.s_action[wa] == Poly.gen(q) * Poly.gen(wpr)
        assert rm.s_action[wb].is_zero()

    def test_non_cancelling_partials_refused(self, setup):
        sp, a, b, p, q, r, form = setup
        image = Poly.gen(q) * (Poly.gen(p) - Poly.gen(r))
        kfield = VectorField(sp, -1, coeffs={p: 1, r: -1})
        assert kfield.apply(image) == -2 * Poly.gen(q)
        with pytest.raises(ReductionError, match="does not descend"):
            reduce_form(form, [a, b, p, r], s=VectorField(sp, 0, coeffs={a: image}))


@pytest.mark.parametrize("name, kill", [
    ("toy_dim0", None), ("maxwell_weak", None), ("ym_weak", None),
    ("maxwell_weak", 0), ("ym_weak", 0),
], ids=["toy_dim0", "maxwell_weak", "ym_weak",
        "maxwell_weak-boundary_kill0", "ym_weak-boundary_kill0"])
def test_s_action_on_first_read_matches_eager_reference(name, kill):
    """s_action reads the field along the free-column section; the reference
    reads it along the inverse of the (survivor; kernel) basis change, which
    is another section wherever a survivor mixes columns."""
    pytest.importorskip("sympy")
    form, universe, s = _top_block(name, kill)
    rm = reduce_form(form, universe, s=s)
    if kill is not None:
        assert any(sum(1 for c in lam if c) > 1 for lam in rm.survivor_forms)
    got = rm.s_action
    assert got == reference_s_action(rm, s)
    assert rm.s_action is got
    assert any(not img.is_zero() for img in got.values())


def test_reduce_form_eliminates_twice(monkeypatch):
    """One elimination for the kernel of the coefficient system, one for its
    reduced row echelon form; the quotient is read along the free columns,
    with no third system for an inverse basis change."""
    import gpde.reduction

    calls = []
    real = gpde.reduction.sparse_rref

    def sparse_rref(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    form, universe, s = _top_block("ym_weak")
    monkeypatch.setattr(gpde.reduction, "sparse_rref", sparse_rref)
    rm = reduce_form(form, universe, s=s)
    assert rm.kernel_vectors and rm.split_residual().is_zero()
    assert calls == [len(universe)] * 2
