import itertools
from fractions import Fraction

import pytest

from gpde.algebra import LieAlgebraData, Poly, lie_bracket, theta_basis, trace_pair
from gpde.cartan import de_rham
from gpde.model import ModelBuilder


def build_toy():
    """Base dimension zero: u (gh 0), v and z (gh -1), chi = v du."""
    b = ModelBuilder("toy_dim0", 0)
    u = b.fiber("u", gh=0).gen()
    v = b.fiber("v", gh=-1).gen()
    z = b.fiber("z", gh=-1).gen()
    up = Poly.gen(u)
    b.q_rules([(v, up * up)])
    b.q_rules([(z, up * up * up)])
    b.chi(Poly.gen(v) * de_rham(up))
    return b.build()


def build_ce(n=2, lie=None):
    """Chevalley-Eilenberg model: one ghost-1 lie-valued coordinate with
    Q C = -1/2 [C, C] and no presymplectic potential."""
    b = ModelBuilder("ce_aksz", n)
    lie = b.lie(lie or LieAlgebraData.su2())
    C = b.fiber("C", gh=1, lie=lie)
    Cv = C.as_lie_valued()
    br = lie_bracket(Cv, Cv)
    for i in range(lie.dim):
        b.q_rules([(C.gen(li=i), Fraction(-1, 2) * br[i])])
    return b.build()


def build_curved(name, lie, weak=True):
    """Connection-curvature model on a dim-4 minkowski base:
    C (gh 1) and antisymmetric F[a,b] (gh 0), both lie-valued, with
      Q C = -1/2 [C,C] + 1/2 theta^a theta^b F_ab
      Q F_ab = [F_ab, C]
      chi = kappa(inveta inveta theta2_ab F_cd, dC) summed over all pairs."""
    n = 4
    b = ModelBuilder(name, n)
    b.metric([-1, 1, 1, 1])
    lie = b.lie(lie)
    C = b.fiber("C", gh=1, lie=lie)
    F = b.fiber("F", gh=0, slots=2, antisym=True, lie=lie)
    ths = [b.theta[a] for a in range(n)]
    Cv = C.as_lie_valued()
    br = lie_bracket(Cv, Cv)
    for i in range(lie.dim):
        rhs = Fraction(-1, 2) * br[i]
        for a in range(n):
            for bb in range(n):
                if a == bb:
                    continue
                sign, g = F.resolve((a, bb), li=i)
                rhs = rhs + Fraction(sign, 2) * Poly.gen(ths[a]) * Poly.gen(ths[bb]) * Poly.gen(g)
        b.q_rules([(C.gen(li=i), rhs)])
    for (a, bb) in itertools.combinations(b.base_indices, 2):
        Fv = F.as_lie_valued((a, bb))
        br = lie_bracket(Fv, Cv)
        for i in range(lie.dim):
            b.q_rules([(F.gen((a, bb), li=i), br[i])])
    bg = b.tensors
    chi = Poly.zero()
    for a in range(n):
        for bb in range(n):
            basis = theta_basis(ths, (a, bb))
            if basis.is_zero():
                continue
            for c in range(n):
                for d in range(n):
                    w = bg.inveta(a, c) * bg.inveta(bb, d)
                    if not w or c == d:
                        continue
                    for i in range(lie.dim):
                        for j in range(lie.dim):
                            k = lie.kappa[i][j]
                            if not k:
                                continue
                            sgn, gf = F.resolve((c, d), li=i)
                            dC = de_rham(Poly.gen(C.gen(li=j)))
                            chi = chi + (w * k * sgn) * basis * Poly.gen(gf) * dC
    b.chi(chi)
    b.weak(weak)
    return b.build()


def build_maxwell():
    return build_curved("maxwell_weak", LieAlgebraData.abelian(1, "u1"))


def build_ym():
    return build_curved("ym_weak", LieAlgebraData.su2())


@pytest.fixture(scope="session")
def toy_model():
    return build_toy()


@pytest.fixture(scope="session")
def ce_model():
    return build_ce()


@pytest.fixture(scope="session")
def maxwell_model():
    return build_maxwell()


@pytest.fixture(scope="session")
def ym_model():
    return build_ym()
