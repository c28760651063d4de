import random

import pytest

from gpde.algebra import (
    BASE_THETA,
    BASE_X,
    FIBER,
    DegreeError,
    Poly,
    Space,
)
from gpde.cartan import VectorField, d_vertical, de_rham, interior

from properties import lie_derivative, vf_commutator


@pytest.fixture
def setup():
    sp = Space("cartan")
    x = sp.coordinate("x", BASE_X, 0, base_index=(0,))
    th = sp.coordinate("th", BASE_THETA, 1, base_index=(0,))
    psi = sp.coordinate("p", FIBER, 0)
    c = sp.coordinate("c", FIBER, 1)
    return sp, x, th, psi, c


def rand_poly(rng, gens, nterms=4, deg=3):
    acc = Poly.zero()
    for _ in range(rng.randint(1, nterms)):
        t = Poly.scalar(rng.randint(-3, 3))
        for g in rng.sample(gens, rng.randint(0, deg)):
            t = t * Poly.gen(g)
        acc = acc + t
    return acc


def all_gens(sp, coords):
    out = list(coords)
    for g in coords:
        out.append(sp.differential(g))
    return out


class TestDifferential:
    def test_d_on_coordinates(self, setup):
        sp, x, th, psi, c = setup
        assert de_rham(Poly.gen(x)) == Poly.gen(sp.differential(x))
        assert de_rham(Poly.gen(sp.differential(x))).is_zero()

    def test_d_squared_zero_randomized(self, setup):
        sp, x, th, psi, c = setup
        rng = random.Random(11)
        gens = all_gens(sp, [x, th, psi, c])
        for _ in range(50):
            p = rand_poly(rng, gens)
            assert de_rham(de_rham(p)).is_zero()

    def test_d_leibniz_sign(self, setup):
        sp, x, th, psi, c = setup
        # d(theta * c) = dtheta * c - theta * dc
        p = Poly.gen(th) * Poly.gen(c)
        dth, dc = sp.differential(th), sp.differential(c)
        assert de_rham(p) == Poly.gen(dth) * Poly.gen(c) - Poly.gen(th) * Poly.gen(dc)

    def test_vertical_d_ignores_base(self, setup):
        sp, x, th, psi, c = setup
        p = Poly.gen(x) * Poly.gen(psi)
        dvpsi = sp.differential(psi, vertical=True)
        assert d_vertical(p) == Poly.gen(x) * Poly.gen(dvpsi)
        assert d_vertical(Poly.gen(x)).is_zero()
        assert d_vertical(Poly.gen(th)).is_zero()

    def test_vertical_d_squared_and_anticommute(self, setup):
        sp, x, th, psi, c = setup
        rng = random.Random(5)
        gens = all_gens(sp, [x, th, psi, c]) + [sp.differential(psi, vertical=True),
                                                sp.differential(c, vertical=True)]
        for _ in range(30):
            p = rand_poly(rng, gens)
            assert d_vertical(d_vertical(p)).is_zero()
            assert (de_rham(d_vertical(p)) + d_vertical(de_rham(p))).is_zero()

    def test_d_forms_no_monomial_product(self, ym_model, monkeypatch):
        # d and d_v put each differential in its slot in closed form; routing
        # them back through derive would multiply every image into its
        # monomial with mono_mul, which the same counter sees in interior()
        import gpde.algebra

        calls = []
        real = gpde.algebra.mono_mul

        def mono_mul(m1, m2):
            calls.append((m1, m2))
            return real(m1, m2)

        monkeypatch.setattr(gpde.algebra, "mono_mul", mono_mul)
        chi = ym_model.chi
        w, dv = de_rham(chi), d_vertical(chi)
        assert not w.is_zero() and not dv.is_zero()
        assert calls == []
        interior(ym_model.q, w)
        assert calls


class TestVectorField:
    def test_apply_on_function(self, setup):
        sp, x, th, psi, c = setup
        V = VectorField(sp, 0, coeffs={x: 1})
        p = Poly.gen(x) * Poly.gen(x) * Poly.gen(psi)
        assert V.apply(p) == 2 * Poly.gen(x) * Poly.gen(psi)

    def test_apply_rejects_forms(self, setup):
        sp, x, th, psi, c = setup
        V = VectorField(sp, 0, coeffs={x: 1})
        with pytest.raises(DegreeError):
            V.apply(Poly.gen(sp.differential(x)))

    def test_apply_rejects_forms_off_its_coefficients(self, setup):
        # the field moves x only; the form's differential d psi sits beside
        # a function factor the field does not move, and is still refused
        sp, x, th, psi, c = setup
        V = VectorField(sp, 0, coeffs={x: 1})
        form = Poly.gen(c) * Poly.gen(sp.differential(psi))
        for p in (form, Poly.gen(x) * form, Poly.gen(x) + form):
            with pytest.raises(DegreeError, match="vector fields act on functions"):
                V.apply(p)
        W = VectorField(sp, 1, rule=lambda g: Poly.gen(c) if g is psi else None)
        with pytest.raises(DegreeError, match="vector fields act on functions"):
            W.apply(form)

    def test_coefficient_parity_checked(self, setup):
        sp, x, th, psi, c = setup
        with pytest.raises(DegreeError):
            VectorField(sp, 0, coeffs={x: Poly.gen(th)})
        with pytest.raises(DegreeError):
            VectorField(sp, 1, coeffs={x: Poly.gen(psi)})

    def test_lazy_rule_memoizes(self, setup):
        sp, x, th, psi, c = setup
        calls = []

        def rule(g):
            calls.append(g)
            return Poly.gen(th) if g is x else None

        V = VectorField(sp, 1, rule=rule)
        assert V.coefficient(x) == Poly.gen(th)
        assert V.coefficient(x) == Poly.gen(th)
        assert len(calls) == 1

    def test_apply_without_rule_stores_no_zero_coefficients(self, setup):
        # a declared zero moves nothing either; coefficient() still answers
        # an undeclared generator with zero
        sp, x, th, psi, c = setup
        V = VectorField(sp, 0, coeffs={x: 1, psi: 0})
        p = Poly.gen(x) * Poly.gen(psi) * Poly.gen(c) + Poly.gen(th) * Poly.gen(c)
        assert V.apply(p) == Poly.gen(psi) * Poly.gen(c)
        assert set(V._coeffs) == {x, psi}
        assert V.coefficient(c).is_zero()


class TestContraction:
    def test_contraction_of_differential(self, setup):
        sp, x, th, psi, c = setup
        Q = VectorField(sp, 1, coeffs={x: Poly.gen(th), c: Poly.gen(c) * Poly.gen(c)})
        assert interior(Q, Poly.gen(sp.differential(x))) == Poly.gen(th)
        assert interior(Q, Poly.gen(x)).is_zero()

    def test_contraction_parity(self, setup):
        # i_V for even V is an odd derivation; for odd V an even one
        sp, x, th, psi, c = setup
        Veven = VectorField(sp, 0, coeffs={x: 1, psi: 1})
        dx, dpsi = sp.differential(x), sp.differential(psi)
        p = Poly.gen(dx) * Poly.gen(dpsi)
        # i_V(dx*dpsi) = 1*dpsi - dx*1 for odd i_V
        assert interior(Veven, p) == Poly.gen(dpsi) - Poly.gen(dx)

        Vodd = VectorField(sp, 1, coeffs={th: Poly.gen(x)})
        dth = sp.differential(th)
        q = Poly.gen(dth) * Poly.gen(dth)
        # even derivation: no sign, two equal contributions
        assert interior(Vodd, q) == 2 * Poly.gen(x) * Poly.gen(dth)


class TestLieDerivative:
    def test_acts_as_field_on_functions_any_parity(self, setup):
        sp, x, th, psi, c = setup
        rng = random.Random(3)
        Veven = VectorField(sp, 0, coeffs={x: Poly.gen(psi), psi: Poly.gen(x)})
        Vodd = VectorField(sp, 1, coeffs={x: Poly.gen(th), c: Poly.gen(psi), th: Poly.gen(x) * Poly.gen(psi)})
        for V in (Veven, Vodd):
            for _ in range(25):
                f = rand_poly(rng, [x, th, psi, c])
                assert lie_derivative(V, f) == V.apply(f)

    def test_frozen_sign_on_base_differentials(self, setup):
        # for the odd field with V(x) = theta:  L_V(dx) = -dtheta
        sp, x, th, psi, c = setup
        Q = VectorField(sp, 1, coeffs={x: Poly.gen(th)})
        dx, dth = sp.differential(x), sp.differential(th)
        assert lie_derivative(Q, Poly.gen(dx)) == -Poly.gen(dth)

    def test_commutes_with_d_graded(self, setup):
        sp, x, th, psi, c = setup
        rng = random.Random(17)
        gens = all_gens(sp, [x, th, psi, c])
        Vodd = VectorField(sp, 1, coeffs={x: Poly.gen(th), th: Poly.gen(x), c: Poly.gen(psi)})
        Veven = VectorField(sp, 0, coeffs={x: Poly.gen(x), psi: Poly.gen(psi), c: Poly.gen(c)})
        for V, sign in ((Vodd, -1), (Veven, 1)):
            for _ in range(25):
                p = rand_poly(rng, gens)
                lhs = lie_derivative(V, de_rham(p))
                rhs = sign * de_rham(lie_derivative(V, p))
                assert lhs == rhs

    def test_cartan_magic_formula_even_field(self, setup):
        sp, x, th, psi, c = setup
        rng = random.Random(23)
        gens = all_gens(sp, [x, th, psi, c])
        V = VectorField(sp, 0, coeffs={x: Poly.gen(psi) * Poly.gen(x), psi: 1})
        for _ in range(25):
            p = rand_poly(rng, gens)
            assert lie_derivative(V, p) == interior(V, de_rham(p)) + de_rham(interior(V, p))


def op_commutator(A, pa, B, pb, p):
    sign = -1 if (pa and pb) else 1
    return A(B(p)) - sign * B(A(p))


class TestCoherence:
    def fields(self, sp, x, th, psi, c):
        Vodd = VectorField(sp, 1, coeffs={x: Poly.gen(th), th: Poly.gen(x) * Poly.gen(psi),
                                          psi: Poly.gen(c), c: Poly.gen(psi) * Poly.gen(psi)},
                           name="V")
        Weven = VectorField(sp, 0, coeffs={x: Poly.gen(x), th: Poly.gen(th) * Poly.gen(psi),
                                           psi: Poly.gen(psi), c: Poly.gen(c)}, name="W")
        Wodd = VectorField(sp, 1, coeffs={x: Poly.gen(psi) * Poly.gen(th), th: Poly.gen(psi),
                                          c: 1}, name="U")
        return Vodd, Weven, Wodd

    def test_hand_checked_mixed_case(self, setup):
        # odd V with V(x) = theta, even W with W(theta) = theta:
        # [V,W](x) = -theta, so [L_V, i_W](dx) must be -theta
        sp, x, th, psi, c = setup
        V = VectorField(sp, 1, coeffs={x: Poly.gen(th)}, name="V")
        W = VectorField(sp, 0, coeffs={th: Poly.gen(th)}, name="W")
        dx = Poly.gen(sp.differential(x))
        lhs = op_commutator(lambda p: lie_derivative(V, p), 1,
                            lambda p: interior(W, p), 1, dx)
        assert lhs == -Poly.gen(th)
        VW = vf_commutator(V, W)
        assert VW.coefficient(x) == -Poly.gen(th)
        assert interior(VW, dx) == -Poly.gen(th)

    @pytest.mark.parametrize("pair", ["odd-even", "odd-odd", "even-even", "even-odd"])
    def test_lie_contraction_commutator(self, setup, pair):
        sp, x, th, psi, c = setup
        Vodd, Weven, Wodd = self.fields(sp, x, th, psi, c)
        V = Vodd if pair.startswith("odd") else Weven
        W = Wodd if pair.endswith("odd") else Weven
        if V is W:
            W = VectorField(sp, 0, coeffs={x: Poly.gen(psi) * Poly.gen(x), c: Poly.gen(c)})
        rng = random.Random(41)
        gens = all_gens(sp, [x, th, psi, c])
        VW = vf_commutator(V, W)
        for _ in range(20):
            p = rand_poly(rng, gens)
            lhs = op_commutator(lambda q: lie_derivative(V, q), V.parity,
                                lambda q: interior(W, q), (W.parity + 1) % 2, p)
            assert lhs == interior(VW, p)

    @pytest.mark.parametrize("pair", ["odd-even", "odd-odd", "even-even"])
    def test_lie_lie_commutator(self, setup, pair):
        sp, x, th, psi, c = setup
        Vodd, Weven, Wodd = self.fields(sp, x, th, psi, c)
        V = Vodd if pair.startswith("odd") else Weven
        W = Wodd if pair.endswith("odd") else Weven
        if V is W:
            W = VectorField(sp, 0, coeffs={x: Poly.gen(psi) * Poly.gen(x), c: Poly.gen(c)})
        rng = random.Random(43)
        gens = all_gens(sp, [x, th, psi, c])
        VW = vf_commutator(V, W)
        for _ in range(15):
            p = rand_poly(rng, gens)
            lhs = op_commutator(lambda q: lie_derivative(V, q), V.parity,
                                lambda q: lie_derivative(W, q), W.parity, p)
            assert lhs == lie_derivative(VW, p)

    def test_odd_field_self_commutator(self, setup):
        # [L_V, i_V] = i_[V,V] for odd V
        sp, x, th, psi, c = setup
        Vodd, _, _ = self.fields(sp, x, th, psi, c)
        VV = vf_commutator(Vodd, Vodd)
        rng = random.Random(47)
        gens = all_gens(sp, [x, th, psi, c])
        for _ in range(15):
            p = rand_poly(rng, gens)
            lhs = op_commutator(lambda q: lie_derivative(Vodd, q), 1,
                                lambda q: interior(Vodd, q), 0, p)
            assert lhs == interior(VV, p)

    def test_commutator_jacobi_on_functions(self, setup):
        sp, x, th, psi, c = setup
        V, W, U = self.fields(sp, x, th, psi, c)
        rng = random.Random(53)
        # graded Jacobi: [V,[W,U]] = [[V,W],U] + (-1)^{|V||W|} [W,[V,U]]
        lhs = vf_commutator(V, vf_commutator(W, U))
        r1 = vf_commutator(vf_commutator(V, W), U)
        r2 = vf_commutator(W, vf_commutator(V, U))
        sign = -1 if (V.parity and W.parity) else 1
        for _ in range(15):
            f = rand_poly(rng, [x, th, psi, c])
            assert lhs.apply(f) == r1.apply(f) + sign * r2.apply(f)
