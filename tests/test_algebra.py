import itertools
from collections import Counter
from fractions import Fraction

import pytest

from gpde.algebra import (
    BASE_THETA,
    BASE_X,
    FIBER,
    BackgroundTensors,
    DegreeError,
    ForeignGeneratorError,
    GradedAlgebraError,
    LieAlgebraData,
    LieValued,
    Poly,
    Space,
    derive,
    lie_bracket,
    mono_mul,
    perm_sign,
    theta_basis,
    trace_pair,
)


@pytest.fixture
def sp():
    return Space("test")


def mk_theta(sp, n):
    return [sp.coordinate("th", BASE_THETA, 1, base_index=(a,)) for a in range(n)]


def mk_x(sp, n):
    return [sp.coordinate("x", BASE_X, 0, base_index=(a,)) for a in range(n)]


class TestGenerators:
    def test_interning(self, sp):
        a = sp.coordinate("C", FIBER, 1, lie_index=0)
        b = sp.coordinate("C", FIBER, 1, lie_index=0)
        assert a is b

    def test_redeclaration_with_new_ghost_rejected(self, sp):
        sp.coordinate("C", FIBER, 1, lie_index=0)
        with pytest.raises(GradedAlgebraError):
            sp.coordinate("C", FIBER, 2, lie_index=0)

    def test_parity(self, sp):
        x = sp.coordinate("x", BASE_X, 0, base_index=(0,))
        th = sp.coordinate("th", BASE_THETA, 1, base_index=(0,))
        assert x.parity == 0
        assert th.parity == 1
        assert sp.differential(x).parity == 1
        assert sp.differential(th).parity == 0

    def test_hash_and_equality_are_identity(self, sp):
        a = sp.coordinate("C", FIBER, 1, lie_index=0)
        other = Space("other").coordinate("C", FIBER, 1, lie_index=0)
        assert a == a and a != other
        assert hash(a) == object.__hash__(a)
        assert len({a, sp.coordinate("C", FIBER, 1, lie_index=0), other}) == 2

    def test_differential_of_differential_rejected(self, sp):
        x = sp.coordinate("x", BASE_X, 0, base_index=(0,))
        dx = sp.differential(x)
        with pytest.raises(DegreeError):
            sp.differential(dx)
        assert sp.coordinate_of(dx) is x


class TestMonomials:
    def test_odd_square_drops(self, sp):
        th = mk_theta(sp, 1)[0]
        m = ((th, 1),)
        assert mono_mul(m, m) is None

    def test_koszul_swap_sign(self, sp):
        th0, th1 = mk_theta(sp, 2)
        a = Poly.gen(th0) * Poly.gen(th1)
        b = Poly.gen(th1) * Poly.gen(th0)
        assert a == -b

    def test_even_commutes(self, sp):
        x0, x1 = mk_x(sp, 2)
        assert Poly.gen(x0) * Poly.gen(x1) == Poly.gen(x1) * Poly.gen(x0)

    def test_mixed_sign_through_pair(self, sp):
        # moving one odd generator past an even*odd pair flips once
        th0, th1 = mk_theta(sp, 2)
        x = mk_x(sp, 1)[0]
        lhs = Poly.gen(th1) * (Poly.gen(x) * Poly.gen(th0))
        rhs = -1 * Poly.gen(x) * Poly.gen(th0) * Poly.gen(th1)
        assert lhs == rhs


class TestPolyArithmetic:
    def test_sum_cancellation(self, sp):
        x = mk_x(sp, 1)[0]
        p = Poly.gen(x) - Poly.gen(x)
        assert p.is_zero()

    def test_scalar_ops(self, sp):
        x = mk_x(sp, 1)[0]
        p = 2 * Poly.gen(x) + 1
        q = p * p
        assert q == 4 * Poly.gen(x) * Poly.gen(x) + 4 * Poly.gen(x) + 1

    def test_scalar_minus_poly(self, sp):
        x = Poly.gen(mk_x(sp, 1)[0])
        assert 1 - x == -(x - 1)
        assert (1 - x) + x == Poly.scalar(1)

    def test_division(self, sp):
        x = mk_x(sp, 1)[0]
        p = Poly.gen(x) / 2
        assert p * 2 == Poly.gen(x)
        with pytest.raises(DegreeError):
            p / Poly.gen(x)

    def test_foreign_generators_rejected(self):
        s1, s2 = Space("a"), Space("b")
        x = s1.coordinate("x", BASE_X, 0, base_index=(0,))
        y = s2.coordinate("x", BASE_X, 0, base_index=(1,))
        with pytest.raises(ForeignGeneratorError):
            Poly.gen(x) * Poly.gen(y)
        with pytest.raises(ForeignGeneratorError):
            Poly.gen(x) + Poly.gen(y)

    def test_substitute_unifies_spaces(self):
        s1, s2 = Space("a"), Space("b")
        x0 = s1.coordinate("x", BASE_X, 0, base_index=(0,))
        x1 = s1.coordinate("x", BASE_X, 0, base_index=(1,))
        y = s2.coordinate("x", BASE_X, 0, base_index=(1,))
        # an image of another space is refused whatever else the term holds
        with pytest.raises(ForeignGeneratorError):
            (Poly.gen(x0) * Poly.gen(x1)).substitute({x0: Poly.gen(y)})
        with pytest.raises(ForeignGeneratorError):
            Poly.gen(x0).substitute({x0: Poly.gen(y)})
        q = (Poly.gen(x0) * Poly.gen(x0)).substitute({x0: Poly.scalar(2)})
        assert q == 4 and q.space is s1

    def test_homogeneity_queries(self, sp):
        th0, th1 = mk_theta(sp, 2)
        p = Poly.gen(th0) * Poly.gen(th1)
        assert p.gh() == 2
        assert p.parity() == 0
        mixed = Poly.gen(th0) + Poly.gen(th0) * Poly.gen(th1)
        with pytest.raises(DegreeError):
            mixed.gh()

    def test_substitute_kills_and_replaces(self, sp):
        th0, th1 = mk_theta(sp, 2)
        x = mk_x(sp, 1)[0]
        p = Poly.gen(th0) * Poly.gen(th1) + Poly.gen(x) * Poly.gen(th0)
        q = p.substitute({th1: Poly.zero(), x: Poly.scalar(3)})
        assert q == 3 * Poly.gen(th0)

    def test_substitute_parity_checked(self, sp):
        th0 = mk_theta(sp, 1)[0]
        with pytest.raises(DegreeError):
            Poly.gen(th0).substitute({th0: Poly.scalar(1)})

    def test_substitute_odd_image_squares_to_zero(self, sp):
        th0, th1, th2 = mk_theta(sp, 3)
        x = mk_x(sp, 1)[0]
        p = Poly.gen(x) * Poly.gen(x)
        q = p.substitute({x: Poly.zero()})
        assert q.is_zero()
        # odd -> odd substitution keeps Koszul consistency
        r = (Poly.gen(th0) * Poly.gen(th1)).substitute({th0: Poly.gen(th2)})
        assert r == Poly.gen(th2) * Poly.gen(th1)


class TestDerive:
    def test_leibniz_on_even_power(self, sp):
        x = mk_x(sp, 1)[0]
        p = Poly.gen(x) * Poly.gen(x) * Poly.gen(x)
        dp = derive(p, 0, lambda g: 1 if g is x else None)
        assert dp == 3 * Poly.gen(x) * Poly.gen(x)

    def test_odd_derivation_sign(self, sp):
        # odd derivation passing an odd prefix flips sign
        th0, th1 = mk_theta(sp, 2)
        p = Poly.gen(th0) * Poly.gen(th1)
        dp = derive(p, 1, lambda g: 1 if g is th1 else None)
        assert dp == -Poly.gen(th0)
        dp0 = derive(p, 1, lambda g: 1 if g is th0 else None)
        assert dp0 == Poly.gen(th1)

    def test_image_asked_once_per_generator_per_call(self, sp):
        th0, th1 = mk_theta(sp, 2)
        x0, x1 = mk_x(sp, 2)
        X0, X1, T0, T1 = (Poly.gen(g) for g in (x0, x1, th0, th1))
        p = X0 * X0 * T0 * T1 + X0 * X1 * T1 + X1 * X1 * X1 + 3 * X0
        calls = []

        def image(g):
            calls.append(g)
            return X1 if g is x0 else None

        assert derive(p, 0, image) == 2 * X0 * X1 * T0 * T1 + X1 * X1 * T1 + 3 * X1
        # in order of first occurrence, over the terms in their stored order
        assert calls == [x0, th0, th1, x1]
        calls.clear()
        derive(p, 0, image)
        assert calls == [x0, th0, th1, x1]

    def test_derivation_product_rule_randomized(self, sp):
        import random

        rng = random.Random(7)
        ths = mk_theta(sp, 3)
        xs = mk_x(sp, 2)
        gens = ths + xs

        def rand_poly():
            acc = Poly.zero()
            for _ in range(rng.randint(1, 4)):
                t = Poly.scalar(rng.randint(-3, 3))
                for g in rng.sample(gens, rng.randint(0, 3)):
                    t = t * Poly.gen(g)
                acc = acc + t
            return acc

        # odd derivation: odd generators get even images and vice versa
        image = {
            ths[0]: Poly.gen(xs[0]) * Poly.gen(xs[1]) + 2,
            xs[0]: Poly.gen(ths[1]) * Poly.gen(xs[1]) + Poly.gen(ths[2]),
        }

        def img(g):
            return image.get(g)

        for _ in range(40):
            a, b = rand_poly(), rand_poly()
            lhs = derive(a * b, 1, img)
            # graded Leibniz needs parity-homogeneous left factor; build per component
            rhs = Poly.zero()
            for par in (0, 1):
                a_par = a.filter(lambda m: sum(g.parity * e for g, e in m) % 2 == par)
                sign = -1 if par else 1
                rhs = rhs + derive(a_par, 1, img) * b + sign * a_par * derive(b, 1, img)
            assert lhs == rhs


class TestLieAlgebra:
    def test_su2_valid(self):
        lie = LieAlgebraData.su2()
        assert lie.dim == 3
        assert lie.f[2][0][1] == 1
        assert lie.f[2][1][0] == -1

    def test_broken_jacobi_rejected(self):
        f = [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]
        # antisymmetry fails first for this data
        with pytest.raises(GradedAlgebraError):
            LieAlgebraData("bad", 2, f, [[1, 0], [0, 1]])

    def test_jacobi_violation_rejected(self):
        # f_{123} = f_{145} = 1, totally antisymmetric: antisymmetry holds and
        # kappa = 1 is invariant, but [[e2, e3], e4] + cyclic = e5 != 0
        f = [[[0] * 5 for _ in range(5)] for _ in range(5)]
        for t in ((0, 1, 2), (0, 3, 4)):
            for p in itertools.permutations(range(3)):
                f[t[p[0]]][t[p[1]]][t[p[2]]] = perm_sign(p)
        kappa = [[int(i == j) for j in range(5)] for i in range(5)]
        with pytest.raises(GradedAlgebraError, match="^Jacobi identity fails in lie 'bad'$"):
            LieAlgebraData("bad", 5, f, kappa)

    def test_noninvariant_kappa_rejected(self):
        lie = LieAlgebraData.su2()
        kappa = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
        with pytest.raises(GradedAlgebraError):
            LieAlgebraData("su2k", 3, lie.f, kappa)

    def test_bracket_of_odd_ghost_with_itself(self, sp):
        # frozen:  [C,C]^a = f^a_bc C^b C^c with odd C gives 2 * eps contributions
        lie = LieAlgebraData.su2()
        C = [sp.coordinate("C", FIBER, 1, lie_index=i) for i in range(3)]
        Cv = LieValued(lie, [Poly.gen(c) for c in C])
        br = lie_bracket(Cv, Cv)
        c0, c1, c2 = (Poly.gen(c) for c in C)
        assert br[0] == 2 * c1 * c2
        assert br[1] == 2 * c2 * c0
        assert br[2] == 2 * c0 * c1

    def test_trace_of_bracket_against_hand_value(self, sp):
        # frozen:  kappa([C,C], C) = 6 C^1 C^2 C^3 for su2 with kappa = id
        lie = LieAlgebraData.su2()
        C = [sp.coordinate("C", FIBER, 1, lie_index=i) for i in range(3)]
        Cv = LieValued(lie, [Poly.gen(c) for c in C])
        tr = trace_pair(lie_bracket(Cv, Cv), Cv)
        c0, c1, c2 = (Poly.gen(c) for c in C)
        assert tr == 6 * c0 * c1 * c2

    def test_bracket_jacobi_even_entries(self, sp):
        # even lie-valued entries: plain Jacobi identity must vanish
        lie = LieAlgebraData.su2()
        xs = [sp.coordinate("y", FIBER, 0, lie_index=i) for i in range(3)]
        ys = [sp.coordinate("z", FIBER, 0, lie_index=i) for i in range(3)]
        zs = [sp.coordinate("w", FIBER, 0, lie_index=i) for i in range(3)]
        X = LieValued(lie, [Poly.gen(g) for g in xs])
        Y = LieValued(lie, [Poly.gen(g) for g in ys])
        Z = LieValued(lie, [Poly.gen(g) for g in zs])
        j = lie_bracket(X, lie_bracket(Y, Z)) + lie_bracket(Y, lie_bracket(Z, X)) \
            + lie_bracket(Z, lie_bracket(X, Y))
        assert j.is_zero()

    def test_a_pairing_builds_no_intermediate_product(self, sp, monkeypatch):
        # each component of [x, y] and kappa(x, y) is summed in place into
        # the one dict its Poly adopts: no throwaway x^b * y^c Poly and no
        # accumulate pass to scale it by f or kappa
        import gpde.algebra

        lie = LieAlgebraData.su2()
        a, b, c, d = (Poly.gen(sp.coordinate(n, FIBER, 0)) for n in "abcd")
        e, f, g = (Poly.gen(sp.coordinate(n, FIBER, 1)) for n in "efg")
        x = LieValued(lie, [a, b, c + d])
        y = LieValued(lie, [e, f, g])
        calls = Counter()
        adopt, accumulate = Poly._adopt.__func__, gpde.algebra.accumulate

        def counted_adopt(cls, space, terms):
            calls["adopt"] += 1
            return adopt(cls, space, terms)

        def counted_accumulate(acc, pairs):
            calls["accumulate"] += 1
            return accumulate(acc, pairs)

        monkeypatch.setattr(Poly, "_adopt", classmethod(counted_adopt))
        monkeypatch.setattr(gpde.algebra, "accumulate", counted_accumulate)
        br = lie_bracket(x, y)
        assert calls == {"adopt": 3}
        calls.clear()
        tr = trace_pair(x, y)
        assert calls == {"adopt": 1}
        monkeypatch.undo()
        assert [br[0], br[1], br[2]] == [b * g - (c + d) * f, (c + d) * e - a * g, a * f - b * e]
        assert tr == a * e + b * f + (c + d) * g

    def test_component_count_checked(self):
        lie = LieAlgebraData.su2()
        with pytest.raises(GradedAlgebraError):
            LieValued(lie, [Poly.zero()])


class TestBackgroundTensors:
    def test_minkowski(self):
        bg = BackgroundTensors([-1, 1, 1, 1])
        assert bg.eta(0, 0) == -1
        assert bg.inveta(0, 0) == -1
        assert bg.eta(0, 1) == 0
        assert bg.eps((0, 1, 2, 3)) == 1
        assert bg.eps((1, 0, 2, 3)) == -1
        assert bg.eps((0, 0, 2, 3)) == 0

    def test_degenerate_metric_rejected(self):
        with pytest.raises(GradedAlgebraError):
            BackgroundTensors([1, 0, 1])

    def test_perm_sign_matches_inversion_count(self):
        for p in itertools.permutations(range(4)):
            inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
            assert perm_sign(p) == (-1) ** inv


class TestThetaBasis:
    def oracle(self, thetas, indices, n):
        # direct evaluation of (1/(n-k)!) eps_{i1..ik j..} theta^j1..theta^j(n-k)
        import math

        k = len(indices)
        acc = Poly.zero()
        for js in itertools.product(range(n), repeat=n - k):
            sign = perm_sign(tuple(indices) + js) if len(set(tuple(indices) + js)) == n else 0
            if not sign:
                continue
            term = Poly.scalar(sign)
            for j in js:
                term = term * Poly.gen(thetas[j])
            acc = acc + term
        return acc / math.factorial(n - k)

    def test_top_form(self, sp):
        ths = mk_theta(sp, 4)
        vol = theta_basis(ths, ())
        expect = Poly.gen(ths[0]) * Poly.gen(ths[1]) * Poly.gen(ths[2]) * Poly.gen(ths[3])
        assert vol == expect

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2), (4, 3), (4, 4), (2, 2)])
    def test_matches_permutation_sum_oracle(self, n, k):
        sp = Space()
        ths = mk_theta(sp, n)
        for indices in itertools.permutations(range(n), k):
            assert theta_basis(ths, indices) == self.oracle(ths, indices, n)

    def test_repeated_index_vanishes(self, sp):
        ths = mk_theta(sp, 4)
        assert theta_basis(ths, (1, 1)).is_zero()

    def test_antisymmetry_in_open_indices(self, sp):
        ths = mk_theta(sp, 4)
        assert theta_basis(ths, (0, 1)) == -theta_basis(ths, (1, 0))


class TestScalarCoercion:
    def test_fraction_coefficients_exact(self, sp):
        x = mk_x(sp, 1)[0]
        p = Fraction(1, 3) * Poly.gen(x)
        assert (p + p + p) == Poly.gen(x)

    def test_repr_smoke(self, sp):
        th0, th1 = mk_theta(sp, 2)
        x = mk_x(sp, 1)[0]
        p = 2 * Poly.gen(x) * Poly.gen(th0) - Poly.gen(th1)
        assert isinstance(repr(p), str)
        assert repr(Poly.zero()) == "0"


class TestEqualityContract:
    def test_foreign_operands_compare_unequal(self, sp):
        p = Poly.gen(mk_x(sp, 1)[0])
        assert p != None  # noqa: E711
        assert not p == "x"
        assert p in [None, p]
        assert [None, p].index(p) == 1
        assert (p == 1.5) is False

    def test_equal_values_hash_alike(self, sp):
        x = mk_x(sp, 1)[0]
        for p, v in ((Poly.scalar(2), 2), (Poly.scalar(Fraction(1, 2)), Fraction(1, 2)),
                     (Poly.zero(), 0), (Poly.gen(x), x)):
            assert p == v and hash(p) == hash(v)
        assert len({Poly.scalar(2), 2, Fraction(4, 2)}) == 1
        assert {Poly.gen(x): 1}.get(x) == 1
        assert 2 * Poly.gen(x) != 2 and 2 * Poly.gen(x) != x
