"""Shared machinery for the randomized property suites and the acceptance
oracles.

Everything here is deterministic: random data comes from a caller-supplied
seeded Random, and every "expected" expression is built independently of the
code path it is compared against, from index loops over the model data only.
"""

import random
from fractions import Fraction
from typing import Dict, Optional

from gpde.algebra import (
    BASE_THETA,
    BASE_X,
    FIBER,
    JET,
    VDIFF,
    GradedAlgebraError,
    LieValued,
    Poly,
    Space,
    lie_bracket,
    mono_mul,
    mono_parity,
    normal_form,
    theta_basis,
    theta_split,
    trace_pair,
)
from gpde.cartan import VectorField, d_vertical, de_rham, interior, lie_derivative
from gpde.jets import HORIZONTAL, JetModel, theta_coefficients, vertical_lie
from gpde.model import Model, ModelBuilder


# randomized inputs ---------------------------------------------------------


def playground(n: int = 2):
    """Small mixed-parity coordinate pool used by the randomized suites.

    n even/odd base pairs plus four fiber coordinates covering ghost numbers
    -1 through 2, so monomials of every parity and ghost occur."""
    sp = Space("playground")
    pool = []
    for a in range(n):
        pool.append(sp.coordinate("x", BASE_X, 0, base_index=(a,)))
        pool.append(sp.coordinate("theta", BASE_THETA, 1, base_index=(a,)))
    pool.append(sp.coordinate("u", FIBER, 0))
    pool.append(sp.coordinate("c", FIBER, 1))
    pool.append(sp.coordinate("b", FIBER, 2))
    pool.append(sp.coordinate("m", FIBER, -1))
    return sp, pool


def rand_scalar(rng: random.Random) -> Fraction:
    num = rng.randint(-4, 4) or 1
    return Fraction(num, rng.randint(1, 3))


def rand_monomial(rng: random.Random, pool, max_len: int = 3) -> Poly:
    p = Poly.scalar(rand_scalar(rng))
    for _ in range(rng.randint(0, max_len)):
        p = p * Poly.gen(rng.choice(pool))
    return p


def rand_poly(rng: random.Random, pool, terms: int = 3, max_len: int = 3,
              form_chance: float = 0.0) -> Poly:
    """Random sum of short monomials; optionally sprinkles in differentials
    so the result is an inhomogeneous form."""
    p = Poly.zero()
    for _ in range(rng.randint(1, terms)):
        t = rand_monomial(rng, pool, max_len)
        if form_chance and rng.random() < form_chance:
            t = t * de_rham(Poly.gen(rng.choice(pool)))
        p = p + t
    return p


def rand_parity_poly(rng: random.Random, pool, parity: int,
                     terms: int = 3, max_len: int = 3) -> Poly:
    p = rand_poly(rng, pool, terms, max_len)
    return p.filter(lambda mono: mono_parity(mono) == parity)


def rand_vector_field(rng: random.Random, sp: Space, pool,
                      gh: Optional[int] = None, name: str = "V") -> VectorField:
    """Evolutionary field with a random handful of parity-consistent
    coefficients."""
    if gh is None:
        gh = rng.choice([-1, 0, 1, 2])
    coeffs = {}
    for g in rng.sample(pool, rng.randint(1, min(4, len(pool)))):
        v = rand_parity_poly(rng, pool, (g.parity + gh) % 2)
        if not v.is_zero():
            coeffs[g] = v
    return VectorField(sp, gh, coeffs=coeffs, name=name)


def rand_lie_valued(rng: random.Random, lie, pool, parity: int) -> LieValued:
    comps = [rand_parity_poly(rng, pool, parity, terms=2, max_len=2)
             for _ in range(lie.dim)]
    return LieValued(lie, comps)


# jet playground for variational checks -------------------------------------


def variational_model(n: int = 2) -> JetModel:
    """Jet model of a plain scalar bundle over an n-dimensional base: one
    even and one odd fiber coordinate, no differential, used only through
    its jet coordinates."""
    b = ModelBuilder("el_playground", n)
    b.fiber("u", gh=0)
    b.fiber("c", gh=1)
    return JetModel(b.build())


def rand_field_poly(rng: random.Random, jm: JetModel, depth: int = 2,
                    terms: int = 3, max_len: int = 3,
                    with_x: bool = False) -> Poly:
    """Random local functional of the playground fields: products of the
    jets psi_{I|} with |I| up to the given depth."""
    m = jm.parent
    gens = []
    for fam in m.fibers.values():
        base = fam.gen()
        for dv in _derivs(m, depth):
            _, g = jm.jet(base, dv, ())
            gens.append(g)
    if with_x:
        gens.extend(m.x[a] for a in m.base_indices)
    p = Poly.zero()
    for _ in range(rng.randint(1, terms)):
        t = Poly.scalar(rand_scalar(rng))
        for _ in range(rng.randint(1, max_len)):
            t = t * Poly.gen(rng.choice(gens))
        p = p + t
    return p


def _derivs(m: Model, depth: int):
    out = [()]
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for dv in frontier:
            for a in m.base_indices:
                nxt.append(tuple(sorted(dv + (a,))))
        frontier = sorted(set(nxt))
        out.extend(frontier)
    return sorted(set(out))


# acceptance oracles --------------------------------------------------------


def lie_of(m: Model):
    return next(iter(m.lies.values()))


def curvature(m: Model, a: int, b: int, raised: bool = False) -> LieValued:
    """Antisymmetric two-index fiber coordinate as a lie-valued expression,
    optionally raised with the diagonal background metric."""
    lie = lie_of(m)
    w = m.tensors.inveta(a, a) * m.tensors.inveta(b, b) if raised else Fraction(1)
    comps = []
    for i in range(lie.dim):
        s, g = m.fibers["F"].resolve((a, b), li=i)
        comps.append(Fraction(w * s) * Poly.gen(g))
    return LieValued(lie, comps)


def hamiltonian_display(m: Model) -> Poly:
    """Curvature-squared expression the solved hamiltonian must equal:
    1/2 tr(F^{ab}[C,C]) theta2_ab - 1/2 tr(F_ab F^{ab}) vol, summed over
    ordered index pairs."""
    ths = [m.theta[a] for a in m.base_indices]
    Cv = m.fibers["C"].as_lie_valued()
    br = lie_bracket(Cv, Cv)
    vol = theta_basis(ths, ())
    out = Poly.zero()
    for a in m.base_indices:
        for b in m.base_indices:
            if a == b:
                continue
            up = curvature(m, a, b, raised=True)
            dn = curvature(m, a, b)
            out = out + Fraction(1, 2) * trace_pair(up, br) * theta_basis(ths, (a, b))
            out = out - Fraction(1, 2) * trace_pair(dn, up) * vol
    return out


def weak_nilpotency_pattern(m: Model, a: int, b: int, al: int) -> Poly:
    """Half the theta-quadratic curvature commutator: what the square of the
    homological field must produce on the (a, b) curvature component."""
    lie = lie_of(m)
    F = m.fibers["F"]
    out = Poly.zero()
    for c in m.base_indices:
        for d in m.base_indices:
            if c == d:
                continue
            comp = Poly.zero()
            for k in range(lie.dim):
                for l in range(lie.dim):
                    cc = lie.f[al][k][l]
                    if not cc:
                        continue
                    s3, g3 = F.resolve((a, b), li=k)
                    s4, g4 = F.resolve((c, d), li=l)
                    comp = comp + Fraction(cc * s3 * s4) * Poly.gen(g3) * Poly.gen(g4)
            out = out + Poly.gen(m.theta[c]) * Poly.gen(m.theta[d]) * comp
    return Fraction(1, 2) * out


def boundary_one_form_display(m: Model, mr: Model) -> Poly:
    """Expected restriction of the presymplectic potential to a constant-time
    slice: tr(F^{0i} eps_{ijk} theta^j theta^k dC)."""
    lie = lie_of(m)
    spatial = list(mr.base_indices)
    killed = [a for a in m.base_indices if a not in mr.base_indices]
    (t,) = killed
    exp = Poly.zero()
    for i in spatial:
        w = m.tensors.inveta(t, t) * m.tensors.inveta(i, i)
        for j in spatial:
            for k in spatial:
                e = m.tensors.eps((t, i, j, k))
                if not e:
                    continue
                for al in range(lie.dim):
                    for be in range(lie.dim):
                        ka = lie.kappa[al][be]
                        if not ka:
                            continue
                        s, gf = m.fibers["F"].resolve((t, i), li=al)
                        dC = de_rham(Poly.gen(m.fibers["C"].gen(li=be)))
                        exp = exp + (w * e * ka * s) * Poly.gen(gf) \
                            * Poly.gen(mr.theta[j]) * Poly.gen(mr.theta[k]) * dC
    return exp


def first_order_density(jm: JetModel) -> Poly:
    """Classical first-order functional in jet coordinates, A_b = psi^C_{|b}
    and d_a A_b = psi^C_{a|b}:
    tr(F^{ab}(d_a A_b - d_b A_a + [A_a, A_b])) - 1/2 tr(F_ab F^{ab})."""
    m = jm.parent
    lie = lie_of(m)
    F = m.fibers["F"]
    C = m.fibers["C"]

    def a_field(li, j, dv=()):
        _, g = jm.jet(C.gen(li=li), dv, (j,))
        return Poly.gen(g)

    acc = Poly.zero()
    for a in m.base_indices:
        for b in m.base_indices:
            if a == b:
                continue
            w = m.tensors.inveta(a, a) * m.tensors.inveta(b, b)
            for i in range(lie.dim):
                for j in range(lie.dim):
                    ka = lie.kappa[i][j]
                    if not ka:
                        continue
                    s, gf = F.resolve((a, b), li=i)
                    _, fsym = jm.jet(gf)
                    up = Fraction(w * s * ka) * Poly.gen(fsym)
                    acc = acc + up * (a_field(j, b, (a,)) - a_field(j, a, (b,)))
                    s2, gf2 = F.resolve((a, b), li=j)
                    _, fdn = jm.jet(gf2)
                    acc = acc - Fraction(w * ka * s * s2, 2) * Poly.gen(fsym) * Poly.gen(fdn)
                    for k in range(lie.dim):
                        for l in range(lie.dim):
                            cc = lie.f[j][k][l]
                            if cc:
                                acc = acc + Fraction(cc) * up * a_field(k, a) * a_field(l, b)
    return acc


def boundary_charge_display(m: Model, jr: JetModel, ghost_half: bool = True) -> Poly:
    """Constraint-times-parameter integrand the boundary charge density must
    be proportional to: tr(pi^i (d_i gh + [A_i, gh]) - 1/2 P [gh, gh]), in
    the jet coordinates of jr, the jet model of the restricted model, with
    pi and P named through the parent curvature components.  ghost_half=False
    drops the conventional 1/2 on the ghost-squared term."""
    lie = lie_of(m)
    mr = jr.parent
    F = m.fibers["F"]
    C = m.fibers["C"]
    spatial = list(mr.base_indices)
    (t,) = [a for a in m.base_indices if a not in mr.base_indices]

    def momentum(i, li, J=()):
        s, g = F.resolve((t, i), li=li)
        _, psi = jr.jet(g, (), J)
        return Fraction(s) * Poly.gen(psi)

    def ghost(li, J=(), dv=()):
        _, psi = jr.jet(C.gen(li=li), dv, J)
        return Poly.gen(psi)

    exp = Poly.zero()
    for al in range(lie.dim):
        for be in range(lie.dim):
            ka = lie.kappa[al][be]
            if not ka:
                continue
            for i in spatial:
                grad = ghost(be, (), (i,))
                for k in range(lie.dim):
                    for l in range(lie.dim):
                        cc = lie.f[be][k][l]
                        if cc:
                            grad = grad + Fraction(cc) * ghost(k, (i,)) * ghost(l)
                exp = exp - Fraction(ka) * momentum(i, al) * grad
            mom = Poly.zero()
            for i in spatial:
                mom = mom + momentum(i, al, J=(i,))
            brk = Poly.zero()
            for k in range(lie.dim):
                for l in range(lie.dim):
                    cc = lie.f[be][k][l]
                    if cc:
                        brk = brk + Fraction(cc) * ghost(k) * ghost(l)
            w = Fraction(ka, 2) if ghost_half else Fraction(ka)
            exp = exp - w * mom * brk
    return exp


def classify_survivors(red) -> Dict[str, Dict]:
    """Sort the surviving coordinates of a constant-time reduction into the
    four canonical blocks, keyed by lie index (and spatial leg where one
    applies): gauge parameter, potential, momentum, parameter momentum."""
    out: Dict[str, Dict] = {"ghost": {}, "A": {}, "pi": {}, "P": {}}
    for g, lam in zip(red.survivors, red.survivor_forms):
        lead = None
        for col, c in enumerate(lam):
            if c:
                lead = red.universe[col]
                break
        al = lead.lie_index
        if lead.name == "C" and not lead.jet_J:
            out["ghost"][al] = g
        elif lead.name == "C":
            out["A"][(al, lead.jet_J[0])] = g
        elif lead.name == "F" and not lead.jet_J:
            out["pi"][(al, lead.base_index[1])] = g
        else:
            out["P"][al] = g
    return out


def expected_reduced_form(red, lie, spatial) -> Poly:
    """Canonical boundary two-form 2 tr(d pi^i d A_i + d gh d P) written in
    the surviving vertical differentials.  The momentum block enters with a
    sign because the survivor coordinate is the plain curvature component
    while the momentum is its negative."""
    blocks = classify_survivors(red)
    sp = red.space

    def dv(g):
        return Poly.gen(sp.differential(g, vertical=True))

    exp = Poly.zero()
    for al in range(lie.dim):
        for be in range(lie.dim):
            ka = lie.kappa[al][be]
            if not ka:
                continue
            for i in spatial:
                exp = exp + Fraction(2 * ka) * (-dv(blocks["pi"][(al, i)])) * dv(blocks["A"][(be, i)])
            exp = exp + Fraction(2 * ka) * dv(blocks["ghost"][al]) * dv(blocks["P"][be])
    return exp


def flatness_curvature(jm: JetModel) -> Dict:
    """Curvature two-form of a symbolic connection A_b = psi^C_{|b} in jet
    coordinates, one component per lie index: theta^a theta^b (d_a A_b -
    d_b A_a + [A_a, A_b]) over a < b."""
    m = jm.parent
    lie = lie_of(m)
    C = m.fibers["C"]

    def a_fld(k, a, dv=()):
        _, g = jm.jet(C.gen(li=k), dv, (a,))
        return Poly.gen(g)

    out = {}
    for i in range(lie.dim):
        exp = Poly.zero()
        for a in m.base_indices:
            for b in m.base_indices:
                if a >= b:
                    continue
                comp = a_fld(i, b, (a,)) - a_fld(i, a, (b,))
                for k in range(lie.dim):
                    for l in range(lie.dim):
                        cc = lie.f[i][k][l]
                        if cc:
                            comp = comp + Fraction(cc) * a_fld(k, a) * a_fld(l, b)
                exp = exp + Poly.gen(m.theta[a]) * Poly.gen(m.theta[b]) * comp
        out[C.gen(li=i)] = exp
    return out


def gauge_transformation(jm: JetModel) -> Dict:
    """Expected variation of the symbolic connection components
    A_a = psi^C_{|a}: d_a eps + [A_a, eps], with the level-zero ghost jet
    eps = psi^C_{|} as parameter."""
    m = jm.parent
    lie = lie_of(m)
    C = m.fibers["C"]
    out = {}
    for i in range(lie.dim):
        for a in m.base_indices:
            _, gi = jm.jet(C.gen(li=i), (a,), ())
            want = Poly.gen(gi)
            for k in range(lie.dim):
                for l in range(lie.dim):
                    cc = lie.f[i][k][l]
                    if cc:
                        _, ga = jm.jet(C.gen(li=k), (), (a,))
                        _, gc = jm.jet(C.gen(li=l))
                        want = want + Fraction(cc) * Poly.gen(ga) * Poly.gen(gc)
            _, af = jm.jet(C.gen(li=i), (), (a,))
            out[af] = want
    return out


# randomized suites ----------------------------------------------------------


def koszul_shuffle_sign(gens, perm) -> int:
    """Independent sign oracle: reordering a product of homogeneous factors
    picks up -1 for every transposed odd pair."""
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j] and gens[perm[i]].parity and gens[perm[j]].parity:
                s = -s
    return s


def suite_graded_ring(cases: int = 1000, seed: int = 11):
    """Commutativity, associativity and canonical-ordering laws of the
    sign-normalizing product."""
    sp, pool = playground()
    rng = random.Random(seed)
    for k in range(cases):
        a = rand_monomial(rng, pool)
        b = rand_monomial(rng, pool)
        if not a.is_zero() and not b.is_zero():
            sign = -1 if (a.parity() and b.parity()) else 1
            assert a * b == sign * (b * a), f"commutativity, case {k}"
            ab = a * b
            if not ab.is_zero():
                assert ab.gh() == a.gh() + b.gh(), f"ghost additivity, case {k}"
                assert ab.parity() == (a.parity() + b.parity()) % 2, f"parity, case {k}"
        p = rand_poly(rng, pool, form_chance=0.3)
        q = rand_poly(rng, pool, form_chance=0.3)
        r = rand_poly(rng, pool)
        assert (p * q) * r == p * (q * r), f"associativity, case {k}"
        gens = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        perm = list(range(len(gens)))
        rng.shuffle(perm)
        lhs = Poly.scalar(1)
        for i in perm:
            lhs = lhs * Poly.gen(gens[i])
        rhs = Poly.scalar(koszul_shuffle_sign(gens, perm))
        for g in gens:
            rhs = rhs * Poly.gen(g)
        assert lhs == rhs, f"canonical reordering, case {k}"
        odd = rng.choice([g for g in pool if g.parity])
        assert (Poly.gen(odd) * Poly.gen(odd)).is_zero(), f"odd square, case {k}"


def suite_differential(cases: int = 1000, seed: int = 13):
    """d^2 = 0, the graded Leibniz rule, and anticommutation of the full and
    vertical differentials."""
    from gpde.cartan import d_vertical

    sp, pool = playground()
    rng = random.Random(seed)
    for k in range(cases):
        p = rand_poly(rng, pool, terms=3, max_len=3, form_chance=0.4)
        assert de_rham(de_rham(p)).is_zero(), f"d^2, case {k}"
        assert d_vertical(d_vertical(p)).is_zero(), f"vertical d^2, case {k}"
        assert (de_rham(d_vertical(p)) + d_vertical(de_rham(p))).is_zero(), \
            f"mixed differentials, case {k}"
        a = rand_parity_poly(rng, pool, rng.randint(0, 1), terms=2)
        b = rand_poly(rng, pool, terms=2, form_chance=0.2)
        if a.is_zero():
            continue
        sgn = -1 if a.parity() else 1
        assert de_rham(a * b) == de_rham(a) * b + sgn * a * de_rham(b), \
            f"Leibniz, case {k}"


def suite_cartan(cases: int = 1000, seed: int = 17):
    """Coherence of contraction, differential and Lie derivative under the
    graded commutator of vector fields."""
    from gpde.cartan import interior, lie_derivative, vf_commutator

    sp, pool = playground()
    rng = random.Random(seed)
    for k in range(cases):
        V = rand_vector_field(rng, sp, pool, name="V")
        W = rand_vector_field(rng, sp, pool, name="W")
        p = rand_poly(rng, pool, terms=2, max_len=2, form_chance=0.5)
        pv, pw = V.parity, W.parity
        sign = -1 if (pv and (pw + 1) % 2) else 1
        lhs = lie_derivative(V, interior(W, p)) - sign * interior(W, lie_derivative(V, p))
        assert lhs == interior(vf_commutator(V, W), p), f"[L,i], case {k}"
        sign2 = -1 if (pv and pw) else 1
        lhs2 = lie_derivative(V, lie_derivative(W, p)) \
            - sign2 * lie_derivative(W, lie_derivative(V, p))
        assert lhs2 == lie_derivative(vf_commutator(V, W), p), f"[L,L], case {k}"
        a = rand_parity_poly(rng, pool, rng.randint(0, 1), terms=2, max_len=2)
        if a.is_zero():
            continue
        sgn = -1 if (pv and a.parity()) else 1
        assert lie_derivative(V, a * p) == \
            lie_derivative(V, a) * p + sgn * a * lie_derivative(V, p), \
            f"L derivation, case {k}"


def suite_lie_jacobi(cases: int = 1000, seed: int = 19):
    """Graded antisymmetry, Jacobi identity and trace invariance of the
    structure-constant bracket on parity-homogeneous arguments."""
    from gpde.algebra import LieAlgebraData

    sp, pool = playground()
    rng = random.Random(seed)
    su2 = LieAlgebraData.su2()
    ab = LieAlgebraData.abelian(2, "u1xu1")
    for k in range(cases):
        lie = su2 if rng.random() < 0.7 else ab
        px, py, pz = (rng.randint(0, 1) for _ in range(3))
        x = rand_lie_valued(rng, lie, pool, px)
        y = rand_lie_valued(rng, lie, pool, py)
        z = rand_lie_valued(rng, lie, pool, pz)
        sgn = Fraction(-1 if (px and py) else 1)
        assert (lie_bracket(y, x) + sgn * lie_bracket(x, y)).is_zero(), \
            f"antisymmetry, case {k}"
        jac = lie_bracket(x, lie_bracket(y, z)) \
            - lie_bracket(lie_bracket(x, y), z) \
            - sgn * lie_bracket(y, lie_bracket(x, z))
        assert jac.is_zero(), f"Jacobi, case {k}"
        assert trace_pair(lie_bracket(x, y), z) == trace_pair(x, lie_bracket(y, z)), \
            f"trace invariance, case {k}"


def reference_validate(name: str, dim: int, f, kappa) -> Optional[str]:
    """The message LieAlgebraData gives for this data, or None when the data
    is valid: the dense loops over every index, checking kappa symmetry and
    f antisymmetry, then Jacobi, then invariance."""
    d, k = dim, kappa
    for a in range(d):
        for b in range(d):
            if k[a][b] != k[b][a]:
                return f"kappa not symmetric in lie {name!r}"
            for c in range(d):
                if f[a][b][c] != -f[a][c][b]:
                    return f"structure constants not antisymmetric in lie {name!r}"
    # Jacobi: sum_e f[e][a][b] f[m][e][c] + cyclic(a,b,c) = 0
    for m in range(d):
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    s = 0
                    for e in range(d):
                        s += f[e][a][b] * f[m][e][c]
                        s += f[e][b][c] * f[m][e][a]
                        s += f[e][c][a] * f[m][e][b]
                    if s:
                        return f"Jacobi identity fails in lie {name!r}"
    # invariance: kappa([x,y],z) + kappa(y,[x,z]) = 0
    for a in range(d):
        for b in range(d):
            for c in range(d):
                s = 0
                for e in range(d):
                    s += k[e][c] * f[e][a][b] + k[b][e] * f[e][a][c]
                if s:
                    return f"kappa not invariant in lie {name!r}"
    return None


def rand_lie_entry(rng: random.Random):
    """A nonzero int, or a proper fraction with denominator 2 or 3."""
    num = rng.randint(-3, 3) or 1
    return num if rng.random() < 0.5 else Fraction(num, rng.choice([2, 3]))


def rand_lie_data(rng: random.Random):
    """(kind, dim, f, kappa): antisymmetric f and symmetric kappa built one of
    several ways.  "su2", "su2+u1" and "abelian" are valid by construction;
    the others usually break Jacobi ("random", "perturbed") or invariance
    ("noninvariant")."""
    kind = rng.choice(["su2", "su2+u1", "abelian", "random", "perturbed", "noninvariant"])
    dims = {"su2": [3], "noninvariant": [3], "su2+u1": [4], "perturbed": [4],
            "abelian": [1, 2, 3, 4], "random": [3, 4]}
    dim = rng.choice(dims[kind])
    f = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    kappa = [[0] * dim for _ in range(dim)]

    def put(a, b, c, v):
        f[a][b][c] = v
        f[a][c][b] = -v

    if kind in ("su2", "su2+u1", "perturbed", "noninvariant"):
        # su(2) on three basis slots, rescaled: e'_i = s_i e_i
        slots = rng.sample(range(dim), 3)
        s = [rand_lie_entry(rng) for _ in range(3)]
        t = rand_lie_entry(rng)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            put(slots[a], slots[b], slots[c], Fraction(s[b] * s[c]) / s[a])
        for i in range(3):
            kappa[slots[i]][slots[i]] = t * s[i] * s[i]
        for i in set(range(dim)) - set(slots):
            kappa[i][i] = rand_lie_entry(rng)
        if kind == "perturbed":
            a, b, c = rng.randrange(dim), *rng.sample(range(dim), 2)
            put(a, b, c, f[a][b][c] + rand_lie_entry(rng))
        elif kind == "noninvariant":
            i = rng.randrange(dim)
            kappa[i][i] *= rng.choice([2, -1, Fraction(1, 2)])
    else:
        if kind == "random":
            for _ in range(rng.randint(1, 4)):
                a, b, c = rng.randrange(dim), *rng.sample(range(dim), 2)
                put(a, b, c, rand_lie_entry(rng))
        for i in range(dim):
            for j in range(i, dim):
                if i == j or rng.random() < 0.3:
                    kappa[i][j] = kappa[j][i] = rand_lie_entry(rng)
    return kind, dim, f, kappa


def suite_lie_validate(cases: int = 500, seed: int = 47):
    """LieAlgebraData agrees with reference_validate, verdict and message,
    on random antisymmetric structure constants and symmetric kappa.  Valid
    algebras, Jacobi failures and invariance failures all occur."""
    from gpde.algebra import GradedAlgebraError, LieAlgebraData

    rng = random.Random(seed)
    seen = set()
    for k in range(cases):
        kind, dim, f, kappa = rand_lie_data(rng)
        name = f"case{k}"
        want = reference_validate(name, dim, f, kappa)
        try:
            LieAlgebraData(name, dim, f, kappa)
            got = None
        except GradedAlgebraError as e:
            got = str(e)
        assert got == want, f"case {k} ({kind}): {got!r} != {want!r}"
        seen.add((kind, want.split(" in lie")[0] if want else "valid"))
    for kind in ("su2", "su2+u1", "abelian"):
        assert (kind, "valid") in seen, f"no valid {kind} case"
    verdicts = {v for _, v in seen}
    assert {"Jacobi identity fails", "kappa not invariant"} <= verdicts, verdicts


def suite_el_invariance(cases: int = 1000, seed: int = 23):
    """The variational derivative annihilates total derivatives, so adding a
    divergence never changes the equivalence class of a density."""
    from gpde.jets import euler_lagrange

    jm = variational_model()
    rng = random.Random(seed)
    for k in range(cases):
        dens = rand_field_poly(rng, jm, depth=1, terms=2, max_len=3)
        div = Poly.zero()
        for a in jm.parent.base_indices:
            cur = rand_field_poly(rng, jm, depth=1, terms=2, max_len=2, with_x=True)
            div = div + jm.total_derivative(a).apply(cur)
        assert not euler_lagrange(jm, div), f"exact density, case {k}"
        assert euler_lagrange(jm, dens + div) == euler_lagrange(jm, dens), \
            f"shifted density, case {k}"


def rand_canonical_monomial(rng: random.Random, pool, max_len: int = 5):
    """Canonical monomial drawn directly, not through any product: distinct
    generators in sort order, even ones to a power up to 3, odd ones once."""
    gens = rng.sample(pool, rng.randint(0, min(max_len, len(pool))))
    return tuple(sorted(((g, 1 if g.parity else rng.randint(1, 3)) for g in gens),
                        key=lambda f: f[0]._sort))


def reference_mono_mul(m1, m2):
    """Independent oracle for mono_mul: expand both monomials into one factor
    per unit of exponent, bubble-sort by the generator sort key flipping the
    sign on every swap of two odd factors, and return None when an odd
    factor repeats."""
    seq = [g for g, e in m1 + m2 for _ in range(e)]
    sign = 1
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            a, b = seq[i], seq[i + 1]
            if b._sort < a._sort:
                seq[i], seq[i + 1] = b, a
                if a.parity and b.parity:
                    sign = -sign
    out = []
    for g in seq:
        if out and out[-1][0] is g:
            if g.parity:
                return None
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return sign, tuple(out)


def suite_mono_mul(cases: int = 1000, seed: int = 31):
    """mono_mul against the bubble-sort oracle on playground monomials and
    their differentials, in both orders; the cases must hit both signs and
    the vanishing of a repeated odd factor."""
    sp, pool = playground()
    pool = pool + [sp.differential(g) for g in pool]
    rng = random.Random(seed)
    seen = set()
    for k in range(cases):
        m1 = rand_canonical_monomial(rng, pool)
        m2 = rand_canonical_monomial(rng, pool)
        for a, b in ((m1, m2), (m2, m1)):
            want = reference_mono_mul(a, b)
            assert mono_mul(a, b) == want, f"mono_mul, case {k}"
            seen.add(None if want is None else want[0])
    assert seen == {1, -1, None}, f"vacuous mono_mul suite: outcomes {seen}"


def is_normal(c) -> bool:
    """c is a coefficient in normal form: an int, or a Fraction that is not
    integral (never a float, a bool or an integral Fraction)."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_normal(p: Poly, what: str = "result"):
    bad = [c for c in p.terms.values() if not is_normal(c)]
    assert not bad, f"coefficients not in normal form after {what}: {bad[:3]}"


def reference_sum(*polys) -> Poly:
    """Plain dict sum, filtered by the public constructor; shares no code
    with the kernel's in-place accumulator."""
    total = {}
    for p in polys:
        for m, c in p.terms.items():
            total[m] = total.get(m, 0) + c
    return Poly(None, total)


def reference_derive(p: Poly, parity: int, image) -> Poly:
    """Loop version of algebra.derive: every Leibniz contribution is a
    one-term Poly built through the public constructor, multiplied by the
    image and the monomial suffix, and added to the running sum."""
    space = p.space
    acc = Poly.zero()
    for m, c in p.terms.items():
        prefix_parity = 0
        for idx, (g, e) in enumerate(m):
            img = image(g)
            if img is not None and not normal_form(img).is_zero():
                sign = -1 if (parity & prefix_parity) else 1
                rest_pref = m[:idx] + (((g, e - 1),) if e > 1 else ())
                term = Poly(space, {rest_pref: Fraction(sign * e) * c}) * normal_form(img)
                term = term * Poly(space, {m[idx + 1:]: Fraction(1)})
                acc = acc + term
            prefix_parity ^= (g.parity & 1) * (e & 1)
    return acc


def reference_de_rham(p: Poly, vertical: bool = False) -> Poly:
    """d (or d_v with vertical=True) as the loop oracle reference_derive of
    parity 1 with the one-generator images g -> dg, on fiber and jet
    coordinates only under d_v, so every image is placed by Poly products."""
    def image(g):
        if g.fdeg or (vertical and g.role not in (FIBER, JET)):
            return None
        return Poly.gen(p.space.differential(g, vertical=vertical))

    return reference_derive(p, 1, image)


def de_rham_pool():
    """Coordinates, their differentials and the vertical differentials of
    the fiber and jet ones, chosen so that d meets every placement: dx and
    dtheta sort left of x and theta, dC (C odd, dC even) and dA sort right
    past F, and a jet's dv lands in the VDIFF tail."""
    sp = Space("de_rham_oracle")
    coords = []
    for a in range(2):
        coords.append(sp.coordinate("x", BASE_X, 0, base_index=(a,)))
        coords.append(sp.coordinate("theta", BASE_THETA, 1, base_index=(a,)))
    coords.append(sp.coordinate("A", FIBER, 0, base_index=(0,)))
    coords.append(sp.coordinate("C", FIBER, 1))
    coords.append(sp.coordinate("F", FIBER, 0, base_index=(0, 1)))
    coords.append(sp.coordinate("A", JET, -1, base_index=(0,), jet_I=(1,)))
    coords.append(sp.coordinate("C", JET, 0, jet_I=(0,)))
    pool = coords + [sp.differential(g) for g in coords]
    pool += [sp.differential(g, vertical=True) for g in coords if g.role in (FIBER, JET)]
    return sp, pool


def de_rham_cases(m, vertical: bool):
    """The placements d meets on the monomial m (see suite_de_rham)."""
    seen = set()
    for g, e in m:
        if g.fdeg or (vertical and g.role not in (FIBER, JET)):
            continue
        dg = g.space.differential(g, vertical=vertical)
        if dg._sort < g._sort:
            seen.add("left")
        if any(g._sort < h._sort < dg._sort for h, _ in m):
            seen.add("right past")
        if e > 1:
            seen.add("power")
        if any(h is dg for h, _ in m):
            seen.add("vanish" if dg.parity else "merge")
        if vertical and any(h.role == VDIFF for h, _ in m) \
                and any(h.role in (BASE_X, BASE_THETA) for h, _ in m):
            seen.add("vertical tail")
    return seen


def suite_de_rham(cases: int = 1000, seed: int = 53):
    """The closed-form de_rham and d_vertical against reference_de_rham on
    seeded polynomials; the cases must hit a differential sorting left of
    its coordinate, one moving right past other coordinates, a power, an
    even differential already present (C dC^2 -> dC^3), an odd one already
    present, and d_v on a jet term with a VDIFF tail and base factors."""
    sp, pool = de_rham_pool()
    rng = random.Random(seed)
    seen = set()
    for k in range(cases):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[rand_canonical_monomial(rng, pool, max_len=6)] = rand_scalar(rng)
        p = Poly(sp, terms)
        for vertical, got in ((False, de_rham(p)), (True, d_vertical(p))):
            assert got == reference_de_rham(p, vertical), f"de_rham({vertical}), case {k}"
            assert_normal(got, "de_rham")
            for m in p.terms:
                seen |= de_rham_cases(m, vertical)
    want = {"left", "right past", "power", "merge", "vanish", "vertical tail"}
    assert seen == want, f"vacuous de_rham suite: cases {seen}"


def reference_substitute(p: Poly, mapping) -> Poly:
    """Loop version of Poly.substitute: every term is a chain of Poly
    products of its coefficient, its unmapped factors and the images of its
    mapped factors (a power by repeated multiplication), added to the
    running sum."""
    acc = Poly.zero()
    for m, c in p.terms.items():
        term = Poly.scalar(c)
        for g, e in m:
            img = mapping.get(g)
            if img is None:
                term = term * Poly(g.space, {((g, e),): Fraction(1)})
            else:
                for _ in range(e):
                    term = term * normal_form(img)
        acc = acc + term
    return Poly(p.space if acc.space is None else acc.space, acc.terms)


def theta_components(p: Poly) -> Dict[int, Poly]:
    """Split by total theta degree (odd base coordinates, not their
    differentials).  Summing the components reconstructs the input."""
    out: Dict[int, dict] = {}
    for J, _, mono, _ in theta_split(p):
        out.setdefault(len(J), {})[mono] = p.terms[mono]
    return {k: Poly(p.space, t) for k, t in out.items()}


def theta_top_coefficient(m: Model, p: Poly) -> Poly:
    """Coefficient of the full odd volume."""
    top = tuple(sorted(m.base_indices))
    return Poly(p.space, {rest: c for J, rest, _, c in theta_split(p) if J == top})


# the level-form jet calculus against whole forms ------------------------------


def assemble_levels(jm: JetModel, levels) -> Poly:
    """sum_J theta^J * terms of a level form {J: terms}, by Poly products."""
    acc = Poly.zero()
    for J, terms in levels.items():
        t = Poly.scalar(1)
        for j in J:
            t = t * Poly.gen(jm.parent.theta[j])
        acc = acc + t * Poly(jm.space, terms)
    return acc


def reference_total(jm: JetModel, p: Poly, forms: bool) -> Poly:
    """D on a whole form: the derivation D = theta^a D_a over every
    direction, through vertical_lie on vertical forms and D.apply on
    functions, so its products over a repeated theta die in mono_mul."""
    return vertical_lie(jm.D, p) if forms else jm.D.apply(p)


def check_level_form(jm: JetModel, levels):
    """The level-form D and each level-preserving piece (L_s or s, i_s, d_v)
    equal the whole-form action on the assembled form, a vertical form or a
    function.  Returns D of the form, for the caller to check that the
    comparison was not vacuous."""
    valid = set(jm.parent.theta_levels(range(jm.parent.n + 1)))
    whole = assemble_levels(jm, levels)
    assert not whole.is_zero()
    forms = any(g.fdeg for g in whole.generators())
    raised = jm.total_levels(levels)
    # a level with a repeated theta would vanish on assembly unseen
    assert set(raised) <= valid and all(raised.values())
    moved = assemble_levels(jm, raised)
    assert moved == reference_total(jm, whole, forms)
    pieces = [(d_vertical, True)]
    if forms:
        pieces += [(lambda p: vertical_lie(jm.s, p), True), (lambda p: interior(jm.s, p), False)]
    else:
        pieces += [(jm.s.apply, True)]
    for op, odd in pieces:
        kept = jm.levelwise(levels, op, odd)
        assert set(kept) <= set(levels) and all(kept.values())
        assert assemble_levels(jm, kept) == op(whole)
    return moved


def reference_image_levels(jm: JetModel, u) -> dict:
    """The levels of the images of u, d_v u and D u by whole forms: the
    expansion sum_J theta^J psi_{|J} of u, its vertical de_rham or D of it,
    split by theta level.  Keyed by the modes of JetRegistry._level."""
    exp = jm.theta_expansion(u)
    return {None: theta_coefficients(exp),
            True: theta_coefficients(de_rham(exp, vertical=True)),
            HORIZONTAL: theta_coefficients(jm.D.apply(exp))}


def check_image_levels(jm: JetModel, u) -> int:
    """Every level K of every mode of JetRegistry._level on u equals the
    whole-form reference.  Returns the number of nonzero levels compared."""
    compared = 0
    for mode, want in reference_image_levels(jm, u).items():
        for K in jm.parent.theta_levels(range(jm.parent.n + 1)):
            got = Poly(jm.space, jm.registry._level(u, mode, K))
            assert got == want.get(K, Poly.zero()), (u.name, mode, K)
            compared += not got.is_zero()
    return compared


# Cartan's formula on closed forms against whole-form Lie derivatives ----------


def ym_weak_source() -> str:
    """The text of the packaged ym_weak model."""
    import gpde
    from pathlib import Path

    return (Path(gpde.__file__).parent / "models" / "ym_weak.gpde").read_text()


def broken_ym_source() -> str:
    """ym_weak with Q F = 2 [F, C]: s no longer commutes with D on F, so the
    descent tower fails from level 2 on, and chi + h has no hamiltonian."""
    src = ym_weak_source()
    rule = "Q F[a, b] = [F[a, b], C];"
    assert rule in src
    return src.replace(rule, "Q F[a, b] = 2*[F[a, b], C];")


def non_projecting_ym_source() -> str:
    """ym_weak with Q theta^1 = theta^0 theta^1: Q no longer projects to the
    base, so the ideal I is not Q-invariant and no condition modulo I holds."""
    return ym_weak_source() + "Q theta[1] = theta[0]*theta[1];\n"


def ym_source(n: int) -> str:
    """ym_weak on base dimension n with metric diag(-1, 1, ..., 1)."""
    src = ym_weak_source()
    head = "base dim = 4;\nmetric = diag(-1, 1, 1, 1);"
    assert head in src
    metric = ", ".join(["-1"] + ["1"] * (n - 1))
    return src.replace(head, f"base dim = {n};\nmetric = diag({metric});")


def reference_presymplectic(m: Model):
    """The forms whose residuals modulo I check_presymplectic reports, in
    its order, by whole-form lie_derivative and interior on omega = d chi:
    L_Q omega, i_Q i_Q omega and i_Q L_Q omega."""
    omega = de_rham(m.chi)
    lq = lie_derivative(m.q, omega)
    return [lq, interior(m.q, interior(m.q, omega)), interior(m.q, lq)]


def check_cartan_descent(jm: JetModel) -> int:
    """Level by level: d_v kills every level of the vertical two-form, and
    L_s omega = -d_v i_s omega and L_D omega = -d_v D chi_v, where the left
    sides are whole-form vertical_lie on the assembled two-form, split by
    theta level, and the right sides d_v of the jet model's cached i_s omega
    and D chi_v levels.  Returns the number of levels compared."""
    om = jm.vertical_omegabar_levels()
    assert om
    for J, t in om.items():
        assert d_vertical(Poly(jm.space, t)).is_zero(), J
    whole = assemble_levels(jm, om)
    compared = 0
    for V, levels in ((jm.s, jm.i_s_omegabar_levels()), (jm.D, jm.total_chibar_levels())):
        want = theta_coefficients(vertical_lie(V, whole))
        got = jm.levelwise(levels, d_vertical, odd=True)
        assert set(got) == set(want), V.name
        for J, c in want.items():
            assert -Poly(jm.space, got[J]) == c, (V.name, J)
        compared += len(want)
    return compared


def check_half_double_contraction(jm: JetModel) -> int:
    """Level by level, 1/2 i_s i_s of the vertical two-form, read by the jet
    model as one substitution dv(c) -> s(c), equals the whole-form
    interior(s, interior(s, omegabar)) / 2 on the full omegabar (whose base
    differentials i_s kills), split by theta level.  Returns the number of
    levels compared."""
    want = theta_coefficients(interior(jm.s, interior(jm.s, jm.omegabar())) / 2)
    got = jm.half_i_s_i_s_levels()
    assert set(got) == set(want)
    for J, c in want.items():
        assert Poly(jm.space, got[J]) == c, J
    return len(want)


def reference_action_density(sec) -> Poly:
    """The action density by substitution: chi with u sent to sec[u], du to
    D sec[u] (D the total derivative of the section's jet model), dx^a to
    theta^a and dtheta^a to zero, plus the hamiltonian along the section;
    its top theta coefficient."""
    from gpde.model import solve_hamiltonian

    jm = sec.jets
    m = jm.parent
    if m.chi is None:
        raise GradedAlgebraError("model has no presymplectic potential")
    L = solve_hamiltonian(m)
    mapping = dict(sec.mapping)
    for u in m.fiber_coords():
        mapping[m.space.differential(u)] = jm.D.apply(sec[u])
    for a in m.base_indices:
        mapping[m.space.differential(m.x[a])] = Poly.gen(m.theta[a])
        mapping[m.space.differential(m.theta[a])] = Poly.zero()
    total = m.chi.substitute(mapping) + sec.pull(L)
    return theta_top_coefficient(m, total)


def curved_model(seed: int, n: int) -> Model:
    """A seeded connection-curvature model of base dimension n, the family
    of ym_weak: random metric signs and scales, su(2) or u(1) with a random
    invariant scale."""
    from gpde.parser import parse_model

    rng = random.Random(seed)
    metric = ", ".join(rng.choice(["-1", "1", "2", "-1/2"]) for _ in range(n))
    k = rng.choice(["1", "2", "1/3", "-1"])
    lie = rng.choice([f"dim = 3; f[1][2][3] = 1; antisymmetrize; kappa = diag({k}, {k}, {k});",
                      f"dim = 1; kappa = diag({k});"])
    return parse_model("\n".join([
        f"model curved_s{seed}_n{n};",
        f"base dim = {n};",
        f"metric = diag({metric});",
        f"lie g {{ {lie} }}",
        "coord C : gh = 1 in g;",
        "coord F[a, b] : gh = 0 antisym in g;",
        "Q C = -1/2*[C, C] + 1/2*theta[a]*theta[b]*F[a, b];",
        "Q F[a, b] = [F[a, b], C];",
        "chi = inveta[a, c]*inveta[b, d]*theta(2; a, b)*Tr(F[c, d]*d(C));",
        "weak = true;",
    ]))


def suite_trusted_sums(cases: int = 1000, seed: int = 29):
    """Every kernel result stores no zero coefficient (a stored zero would
    make is_zero() false and turn a PASS into a FAIL) and only coefficients
    in normal form (an int when integral, else a Fraction), exact
    cancellations leave an empty dict, and derive and substitute agree with
    their loop references."""
    from gpde.algebra import LieAlgebraData, derive
    from gpde.cartan import interior

    sp, pool = playground()
    x, u = pool[0], pool[4]
    su2 = LieAlgebraData.su2()
    rng = random.Random(seed)
    srng = random.Random(seed + 1)      # substitution data, apart from rng

    def rotation(h):
        # u -> x, x -> -u kills u^2 + x^2 although each term moves
        return Poly.gen(x) if h is u else (-Poly.gen(u) if h is x else None)

    for k in range(cases):
        p = rand_poly(rng, pool, form_chance=0.3)
        q = rand_poly(rng, pool, form_chance=0.3)
        f = rand_poly(rng, pool)
        V = rand_vector_field(rng, sp, pool)
        g = rng.choice(pool)
        mapping = {g: rand_parity_poly(rng, pool, g.parity)}
        par = rng.randint(0, 1)
        lx = rand_lie_valued(rng, su2, pool, rng.randint(0, 1))
        ly = rand_lie_valued(rng, su2, pool, rng.randint(0, 1))
        # several images, one of them zero, and u^2 x^3 so that powers occur
        wide = {h: rand_parity_poly(srng, pool, h.parity)
                for h in srng.sample(pool, srng.randint(1, 4))}
        wide[u] = rand_parity_poly(srng, pool, 0, terms=2, max_len=2)
        wide[srng.choice(pool)] = Poly.zero()
        powered = p + rand_monomial(srng, pool) * Poly.gen(u) * Poly.gen(u) \
            * Poly.gen(x) * Poly.gen(x) * Poly.gen(x)

        def image(h):
            return V.coefficient(h) if not h.fdeg else None

        results = {
            "+": p + q, "-": p - q, "*": p * q,
            "derive": derive(p, V.parity, image),
            "substitute": p.substitute(mapping),
            "substitute (wide)": powered.substitute(wide),
            "de_rham": de_rham(p), "interior": interior(V, p),
            "apply": V.apply(f),
        }
        for i, comp in enumerate(lie_bracket(lx, ly).components):
            results[f"lie_bracket[{i}]"] = comp
        for name, r in results.items():
            assert all(r.terms.values()), f"stored zero after {name}, case {k}"
            assert_normal(r, f"{name}, case {k}")

        assert (p - p).terms == {}, f"p - p, case {k}"
        assert de_rham(de_rham(p)).terms == {}, f"d d p, case {k}"
        rest = rand_monomial(rng, [h for h in pool if h is not u and h is not x])
        moved = rest * (Poly.gen(u) * Poly.gen(u) + Poly.gen(x) * Poly.gen(x))
        assert derive(moved, 0, rotation).terms == {}, f"cancelling derivation, case {k}"

        assert p + q == reference_sum(p, q), f"sum reference, case {k}"
        assert results["derive"] == reference_derive(p, V.parity, image), \
            f"derive reference, case {k}"
        assert derive(p, par, rotation) == reference_derive(p, par, rotation), \
            f"derive reference (parity {par}), case {k}"
        for name, src, mp in (("substitute", p, mapping), ("substitute (wide)", powered, wide)):
            ref = reference_substitute(src, mp)
            assert results[name] == ref and results[name].space is ref.space, \
                f"{name} reference, case {k}"


def suite_long_monomials(cases: int = 500, seed: int = 53):
    """derive and substitute against their loop references on sums of
    canonical monomials of up to six factors, over the playground and its
    differentials (eight odd generators), with even powers up to 3.

    Derivation images mix parities, so the sign of moving an image term past
    the monomial suffix must come from that term; substitution maps half of
    the odd generators, so mapped and unmapped odd factors interleave.  The
    cases must reach each of these paths with a nonzero result, and derive
    must ask for the image of each distinct generator exactly once a call."""
    from collections import Counter

    from gpde.algebra import derive

    sp, pool = playground()
    pool = pool + [sp.differential(g) for g in pool]
    odd = [g for g in pool if g.parity]
    even = [g for g in pool if not g.parity]
    assert len(odd) >= 3
    rng = random.Random(seed)
    hits = Counter()
    for k in range(cases):
        p = Poly(sp, {rand_canonical_monomial(rng, pool, max_len=6): rand_scalar(rng)
                      for _ in range(rng.randint(1, 4))})
        if any(len(m) >= 5 for m in p.terms):
            hits["five or six factors"] += 1

        images = {g: rand_poly(rng, pool, terms=4, max_len=2)
                  for g in rng.sample(pool, rng.randint(1, 6))}
        calls = Counter()

        def image(h):
            calls[h] += 1
            return images.get(h)

        par = rng.randint(0, 1)
        got = derive(p, par, image)
        assert set(calls) == p.generators() and set(calls.values()) <= {1}, \
            f"derive image calls, case {k}: {sorted(calls.values())}"
        assert got == reference_derive(p, par, images.get), f"derive reference, case {k}"
        for m in p.terms:
            one = Poly(sp, {m: 1})
            for g, e in m:
                img = images.get(g)
                if img is None or derive(one, par, images.get).is_zero():
                    continue
                if len({mono_parity(t) for t in img.terms}) == 2:
                    hits["image of mixed parity"] += 1
                if e > 1:
                    hits["derived power"] += 1

        mapping = {g: rand_parity_poly(rng, pool, g.parity, terms=2, max_len=2)
                   for g in rng.sample(odd, len(odd) // 2)
                   + rng.sample(even, rng.randint(0, 3))}
        got = p.substitute(mapping)
        assert got == reference_substitute(p, mapping), f"substitute reference, case {k}"
        for m in p.terms:
            if Poly(sp, {m: 1}).substitute(mapping).is_zero():
                continue
            seen_mapped_odd = False
            for g, e in m:
                if g in mapping:
                    seen_mapped_odd |= bool(g.parity)
                    if e > 1:
                        hits["substituted power"] += 1
                elif g.parity and seen_mapped_odd:
                    hits["odd factor kept right of a mapped odd one"] += 1
    want = {"five or six factors", "image of mixed parity", "derived power",
            "substituted power", "odd factor kept right of a mapped odd one"}
    assert set(hits) == want, f"vacuous long-monomial suite: hits {dict(hits)}"
    return hits


def reference_rref(rows):
    """The dense Gauss-Jordan loop that gpde.reduction.rref replaced, kept as
    an independent oracle: every row is a full list, the pivot is the first
    row with an entry in the column, and every other row is updated entry by
    entry."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rand_matrix(rng: random.Random, k: int):
    """Seeded Fraction matrix for the elimination suites.  Case 0 is all
    zero and case 1 a single row; the rest are sparse (2-30% filled) or
    dense of low rank (a product of random rows x rank and rank x cols
    factors), mostly up to 12 x 20 and about one in thirty up to 40 x 80,
    with some rows or columns zeroed.  Large sparse cases are filled to at
    most 10%: a random 40 x 80 system filled to 30% has full rank, reduced
    entries of over a hundred digits, and takes most of a second."""
    def entry():
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))

    big = rng.random() < 0.03
    nrows = rng.randint(20, 40) if big else rng.randint(1, 12)
    ncols = rng.randint(40, 80) if big else rng.randint(1, 20)
    if k == 1:
        nrows = 1
    zero = Fraction(0)
    if k == 0:
        return [[zero] * ncols for _ in range(nrows)]
    if rng.random() < 0.5:
        fill = rng.uniform(0.02, 0.1 if big else 0.3)
        M = [[entry() if rng.random() < fill else zero for _ in range(ncols)]
             for _ in range(nrows)]
    else:
        rank = rng.randint(1, min(nrows, ncols, 8 if big else 12))
        A = [[entry() for _ in range(rank)] for _ in range(nrows)]
        B = [[entry() for _ in range(ncols)] for _ in range(rank)]
        M = [[sum((A[i][t] * B[t][j] for t in range(rank)), zero) for j in range(ncols)]
             for i in range(nrows)]
    if rng.random() < 0.3:
        for i in rng.sample(range(nrows), rng.randint(1, nrows)):
            M[i] = [zero] * ncols
    if rng.random() < 0.3:
        for j in rng.sample(range(ncols), rng.randint(1, ncols)):
            for row in M:
                row[j] = zero
    return M


def reference_nullspace(rows, ncols: int):
    """Dense right-kernel basis read off reference_rref: for each free column
    fc, the vector that is 1 at fc and minus the reduced rows' fc entries at
    their pivots."""
    red, pivots = reference_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for row, pc in zip(red, pivots):
                vec[pc] = -row[fc]
            basis.append(vec)
    return basis


def suite_rref(cases: int = 1000, seed: int = 37):
    """rref, and the sparse core it adapts, against the dense reference,
    entry for entry and pivot for pivot, rref without touching its input;
    the sparse core's rows store no zero and only normal-form entries.
    Every nullspace vector k gives M k = 0, one per non-pivot column.  The
    cases must reach zero rank, full row rank, full column rank and
    neither."""
    from gpde.reduction import nullspace, rref, sparse_rref

    rng = random.Random(seed)
    seen = set()
    for k in range(cases):
        M = rand_matrix(rng, k)
        before = [list(r) for r in M]
        ncols = len(M[0])
        red, piv = rref(M)
        want_red, want_piv = reference_rref(M)
        assert M == before, f"rref changed its input, case {k}"
        assert piv == want_piv, f"rref pivots, case {k}"
        assert red == want_red, f"rref rows, case {k}"
        sred, spiv = sparse_rref([{j: v for j, v in enumerate(row) if v} for row in M], ncols)
        assert spiv == want_piv, f"sparse rref pivots, case {k}"
        assert [[row.get(j, 0) for j in range(ncols)] for row in sred] == want_red, \
            f"sparse rref rows, case {k}"
        assert all(v and is_normal(v) for row in sred for v in row.values()), \
            f"sparse rref entries, case {k}"
        basis = nullspace(M, ncols)
        assert len(basis) == ncols - len(piv), f"nullspace dimension, case {k}"
        for vec in basis:
            support = [(j, v) for j, v in enumerate(vec) if v]
            for row in M:
                assert sum(row[j] * v for j, v in support) == 0, \
                    f"nullspace vector, case {k}"
        rank = len(piv)
        seen.add("zero" if rank == 0 else
                 "rows" if rank == len(M) else "cols" if rank == ncols else "neither")
    assert seen == {"zero", "rows", "cols", "neither"}, f"vacuous rref suite: {seen}"


def suite_rref_sympy(cases: int = 50, seed: int = 41):
    """rref against sympy's Matrix.rref on matrices from the same generator;
    sympy is used by the tests only."""
    import sympy

    from gpde.reduction import rref

    rng = random.Random(seed)
    for k in range(cases):
        M = rand_matrix(rng, k)
        red, piv = rref(M)
        sred, spiv = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                                   for row in M]).rref()
        assert piv == list(spiv), f"sympy pivots, case {k}"
        want = [[Fraction(int(sred[i, j].p), int(sred[i, j].q)) for j in range(len(M[0]))]
                for i in range(len(piv))]
        assert red == want, f"sympy rows, case {k}"


def reference_s_action(rm, s: VectorField) -> Dict:
    """The projected evolutionary field of a ReducedModel, built eagerly:
    each survivor's image sum_A lambda^A s(u^A) over its survivor_forms row,
    with every universe coordinate u^A replaced by sum_i X[A][i] w_i, where
    X is the survivor part of the inverse of the (survivor_forms;
    kernel_vectors) basis change, inverted by sympy (used by the tests
    only) over QQ, and the substitution is Poly.substitute."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = rm.survivor_forms + rm.kernel_vectors
    n = len(rm.universe)
    T = DomainMatrix([[QQ(int(Fraction(v).numerator), int(Fraction(v).denominator))
                       for v in row] for row in rows], (n, n), QQ)
    X = T.inv().to_Matrix()
    space = rm.space
    csub = {}
    for A, u in enumerate(rm.universe):
        terms = {((w, 1),): Fraction(int(X[A, i].p), int(X[A, i].q))
                 for i, w in enumerate(rm.survivors)}
        csub[u] = Poly(space, terms)
    out = {}
    for w, lam in zip(rm.survivors, rm.survivor_forms):
        image = Poly.zero()
        for u, c in zip(rm.universe, lam):
            if c:
                image = image + s.coefficient(u) * c
        out[w] = image.substitute({h: csub[h] for h in image.generators() if h in csub})
    return out


def suite_even_sympy(cases: int = 50, seed: int = 43):
    """Poly +, * and substitute on the even, commutative sector against
    sympy.  Operands and images are built from seeded {exponents: coefficient}
    dicts through the public constructor only, with coefficients that mix
    ints and proper Fractions; the expected values are sympy's expansions of
    the same dicts, compared coefficient for coefficient.  sympy is used by
    the tests only."""
    import sympy

    sp = Space("even")
    gens = [sp.coordinate("x", BASE_X, 0, base_index=(a,)) for a in range(2)]
    gens.append(sp.coordinate("u", FIBER, 0))
    syms = sympy.symbols("x0 x1 u")
    rng = random.Random(seed)

    def coeff():
        if rng.random() < 0.5:
            return rng.randint(-6, 6) or 1
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 5))

    def rand_dict(terms):
        return {tuple(rng.randint(0, 3) for _ in gens): coeff()
                for _ in range(rng.randint(0, terms))}

    def to_poly(d):
        return Poly(sp, {tuple((g, e) for g, e in zip(gens, exps) if e): c
                         for exps, c in d.items()})

    def to_sympy(d):
        return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*[s ** e for s, e in zip(syms, exps)])
                           for exps, c in d.items()])

    def exponents(p):
        out = {}
        for m, c in p.terms.items():
            powers = dict(m)
            out[tuple(powers.get(g, 0) for g in gens)] = c
        return out

    def check(got: Poly, want, what):
        assert_normal(got, what)
        want = {k: Fraction(int(v.p), int(v.q))
                for k, v in sympy.Poly(sympy.expand(want), *syms).as_dict().items()}
        assert exponents(got) == want, what

    seen = set()
    for k in range(cases):
        a, b = rand_dict(5), rand_dict(5)
        images = {i: rand_dict(3) for i in rng.sample(range(len(gens)), rng.randint(1, 3))}
        pa, pb = to_poly(a), to_poly(b)
        sa, sb = to_sympy(a), to_sympy(b)
        check(pa + pb, sa + sb, f"sum, case {k}")
        check(pa * pb, sa * sb, f"product, case {k}")
        mapping = {gens[i]: to_poly(d) for i, d in images.items()}
        check(pa.substitute(mapping),
              sa.xreplace({syms[i]: to_sympy(d) for i, d in images.items()}),
              f"substitute, case {k}")
        seen.update(type(c) for p in (pa * pb, pa.substitute(mapping))
                    for c in p.terms.values())
    assert seen == {int, Fraction}, f"vacuous sympy suite: coefficient types {seen}"


def maxwell_specializations(m: Model):
    """Abelian limit of every curved-model acceptance check: strict
    nilpotency, exact residuals, golden formula matches, boundary pipeline."""
    from gpde.jets import (JetModel, action_density, boundary_reduction,
                           check_bv_identities, check_descent, el_proportional,
                           generic_supersection, ghost_sector)
    from gpde.model import check_presymplectic, check_solution, q_square, solve_hamiltonian

    lie = lie_of(m)
    for g, r in q_square(m).items():
        assert r.is_zero(), f"abelian square on {g.name}"
    for res in check_presymplectic(m):
        assert res.passed and res.residual_terms == 0, res.name
    L = solve_hamiltonian(m)
    assert L == hamiltonian_display(m)
    for res in check_solution(m, L):
        assert res.passed and res.residual_terms == 0, res.name
    jm = JetModel(m)
    for res in check_descent(jm) + check_bv_identities(jm):
        assert res.passed and res.residual_terms == 0, res.name
    br = boundary_reduction(m, [0])
    mr = br.restricted
    assert mr.chi == boundary_one_form_display(m, mr)
    assert len(br.reduced.kernel_vectors) == 2
    blocks = classify_survivors(br.reduced)
    assert {k: len(v) for k, v in blocks.items()} == \
        {"ghost": 1, "A": 3, "pi": 3, "P": 1}
    assert br.reduced.reduced_form == \
        expected_reduced_form(br.reduced, lie, list(mr.base_indices))
    dens = action_density(generic_supersection(br.jets))
    ok, lam = el_proportional(br.jets, dens, boundary_charge_display(m, br.jets))
    assert ok and lam == 2
    full = ghost_sector(action_density(generic_supersection(jm)), 0)
    ok, lam = el_proportional(jm, full, first_order_density(jm))
    assert ok and lam == 1
