"""kernel_api inputs: seeded graded polynomials and rational matrices, the
kernel calls made on them, and an identity check for every result.

Each check is evaluated by the benchmark itself: exact term dicts for sums
and even derivatives, Koszul signs counted here for monomial products,
evaluation of the even sector at a seeded rational point for products,
brackets and substitution, d(d f) = 0, i_V(d f) = V(f) on functions, and
M k = 0 with a Fraction matrix product written here.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gpde import algebra, cartan, reduction
from gpde.algebra import FIBER, LieAlgebraData, LieValued, Poly, Space

# operand sizes in terms, log-spaced; up to SMALL terms is the .small class.
# Operations whose largest call takes seconds at the commit that adds this
# benchmark (the quadratic accumulation inside derive) stop at a smaller size.
SIZES = [10, 30, 100, 300, 1000, 3000]
SMALL = 100
# distinct inputs per size, so that no metric hinges on one input.  Small
# calls are cheap and many, so that the median call lies in a dense band of
# them; a cycle of the schedule takes 4-7 s on a 2-core box
INPUTS = {"small": 12, "large": 2}
MAX_SIZE = {"algebra.accumulate": 1000, "algebra.substitute": 300,
            "cartan.de_rham": 300, "cartan.interior": 300, "cartan.apply": 300}
# matrix sizes (rows = columns), split into classes by number of entries
MATRIX_SIZES = [3, 5, 8, 12, 20, 32]


class Generators:
    """12 even and 10 odd coordinates of one Space, their differentials, and
    a rational point for the even sector."""

    def __init__(self, rng):
        self.space = Space("kernel_api")
        sp = self.space
        self.even = [sp.coordinate(f"x{i}", FIBER, 0) for i in range(12)]
        self.odd = [sp.coordinate(f"c{i}", FIBER, 1) for i in range(10)]
        self.coords = self.even + self.odd
        self.diffs = {g: sp.differential(g) for g in self.coords}
        # the even sector: every parity-0 generator gets a rational value
        self.point = {g: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                      for g in self.even + [self.diffs[c] for c in self.odd]}

    def monomial(self, rng, length, fdeg, parity=None, pool=None):
        """A canonical monomial with `length` factors, or None on an odd
        repeat or the wrong parity."""
        factors = {}
        for _ in range(length - fdeg):
            g = rng.choice(pool or self.coords)
            factors[g] = factors.get(g, 0) + 1
        for _ in range(fdeg):
            g = self.diffs[rng.choice(self.coords)]
            factors[g] = factors.get(g, 0) + 1
        if any(e > 1 and g.parity for g, e in factors.items()):
            return None
        mono = tuple(sorted(factors.items(), key=lambda ge: ge[0]._sort))
        if parity is not None and sum(g.parity * e for g, e in mono) % 2 != parity:
            return None
        return mono

    def poly(self, rng, terms, fdeg=0, parity=None, max_len=4, pool=None):
        out = {}
        while len(out) < terms:
            mono = self.monomial(rng, rng.randint(1, max_len) + fdeg, fdeg, parity, pool)
            if mono is not None:
                out[mono] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 3))
        return Poly(self.space, out)

    def even_sector(self, p, point=None):
        """Value of the parity-0 part of p at the point."""
        point = point or self.point
        total = Fraction(0)
        for mono, c in p.terms.items():
            if any(g.parity for g, _ in mono):
                continue
            v = c
            for g, e in mono:
                v *= point[g] ** e
            total += v
        return total


# exact expectations computed here -------------------------------------------


def merged(polys):
    out = {}
    for p in polys:
        for m, c in p.terms.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def koszul_product(m1, m2):
    """(sign, monomial) of m1*m2 by counting odd transpositions, None on an
    odd square."""
    seq = [g for g, e in m1 for _ in range(e)] + [g for g, e in m2 for _ in range(e)]
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[j]._sort < seq[i]._sort and seq[i].parity and seq[j].parity:
                sign = -sign
    powers = {}
    for g in seq:
        if g.parity and g in powers:
            return None
        powers[g] = powers.get(g, 0) + 1
    return sign, tuple(sorted(powers.items(), key=lambda ge: ge[0]._sort))


def partial(p, x):
    """Even derivation d/dx on exact term dicts: no signs, exponent drops."""
    out = {}
    for mono, c in p.terms.items():
        for k, (g, e) in enumerate(mono):
            if g is x:
                rest = mono[:k] + (((g, e - 1),) if e > 1 else ()) + mono[k + 1:]
                out[rest] = out.get(rest, 0) + c * e
    return {m: c for m, c in out.items() if c}


def matmul_zero(rows, vec):
    return all(sum((a * b for a, b in zip(row, vec)), Fraction(0)) == 0 for row in rows)


# the schedule -----------------------------------------------------------------


def size_class(size):
    return "small" if size <= SMALL else "large"


class Call:
    """One kernel request: op(*args) on an input of the given size class,
    plus a check of its result."""

    __slots__ = ("op", "size_class", "fn", "args", "check")

    def __init__(self, op, size, fn, args, check):
        self.op, self.fn, self.args, self.check = op, fn, args, check
        self.size_class = size_class(size)


def schedule(seed):
    """Every kernel call of one cycle on seeded inputs, in an order the seed
    shuffles."""
    rng = random.Random(seed * 1_000_003 + 900_000)
    G = Generators(rng)
    su2 = LieAlgebraData.su2()
    calls = []

    def add(op, size, fn, args, check):
        calls.append(Call(op, size, fn, args, check))

    def sized(op):
        """(size, form degree) of every input of op; the inputs of one size
        alternate between form degrees 0 and 1, so that each size has the
        same mix whatever the seed."""
        return [(s, k % 2) for s in SIZES if s <= MAX_SIZE.get(op, SIZES[-1])
                for k in range(INPUTS[size_class(s)])]

    for s, fdeg in sized("algebra.add"):
        a = G.poly(rng, s, fdeg=fdeg)
        b = Poly(G.space, dict(list(a.terms.items())[: s // 2]))
        b = -b + G.poly(rng, s - s // 2)
        add("algebra.add", s, Poly.__add__, (a, b),
            lambda r, a=a, b=b: r.terms == merged([a, b]))

    for s, fdeg in sized("algebra.accumulate"):
        a = G.poly(rng, s, fdeg=fdeg)
        parts = [Poly(G.space, {m: c}) for m, c in a.terms.items()]
        rng.shuffle(parts)
        add("algebra.accumulate", s, accumulate, (parts,),
            lambda r, a=a: r.terms == a.terms)

    for s, fdeg in sized("algebra.mul"):
        a = G.poly(rng, s, fdeg=fdeg)
        small = G.poly(rng, 4)
        add("algebra.mul", s, Poly.__mul__, (a, small),
            lambda r, a=a, small=small:
            G.even_sector(r) == G.even_sector(a) * G.even_sector(small))

    for s, fdeg in sized("algebra.derive"):
        f = G.poly(rng, s, fdeg=fdeg)
        x = rng.choice(G.even)
        add("algebra.derive", s, algebra.derive,
            (f, 0, lambda g, x=x: Poly.scalar(1) if g is x else None),
            lambda r, f=f, x=x: r.terms == partial(f, x))

    for s, fdeg in sized("algebra.substitute"):
        f = G.poly(rng, s, fdeg=fdeg)
        images = {t: G.poly(rng, 3, max_len=2, pool=G.even) for t in rng.sample(G.even, 3)}
        moved = dict(G.point)
        for t, img in images.items():
            moved[t] = G.even_sector(img)
        add("algebra.substitute", s, Poly.substitute, (f, images),
            lambda r, f=f, moved=moved: G.even_sector(r) == G.even_sector(f, moved))

    for s, _ in sized("algebra.lie_bracket"):
        xs = LieValued(su2, [G.poly(rng, max(s // 3, 3)) for _ in range(3)])
        ys = LieValued(su2, [G.poly(rng, 2) for _ in range(3)])
        add("algebra.lie_bracket", s, algebra.lie_bracket, (xs, ys),
            lambda r, xs=xs, ys=ys: all(
                G.even_sector(r[i]) == sum(
                    (su2.f[i][j][k] * G.even_sector(xs[j]) * G.even_sector(ys[k])
                     for j in range(3) for k in range(3)), Fraction(0))
                for i in range(3)))

    for s, fdeg in sized("cartan.de_rham"):
        f = G.poly(rng, s, fdeg=fdeg)
        add("cartan.de_rham", s, cartan.de_rham, (f,),
            lambda r: cartan.de_rham(r).is_zero())

    for s, _ in sized("cartan.interior"):
        f = G.poly(rng, s)
        V = cartan.VectorField(G.space, 0, coeffs={
            g: G.poly(rng, 2, parity=g.parity, max_len=2) for g in rng.sample(G.coords, 8)})
        df = cartan.de_rham(f)
        add("cartan.interior", s, cartan.interior, (V, df),
            lambda r, V=V, f=f: r == V.apply(f))
        add("cartan.apply", s, V.apply, (f,),
            lambda r, V=V, df=df: r == cartan.interior(V, df))

    for n in [n for n in MATRIX_SIZES for _ in range(INPUTS[size_class(n * n)])]:
        rank = 2 * n // 3
        M = low_rank_matrix(rng, n, rank)
        add("reduction.rref", n * n, reduction.rref, (M,),
            lambda r, rank=rank: len(r[1]) == rank)
        add("reduction.nullspace", n * n, reduction.nullspace, (M, n),
            lambda r, M=M, n=n, rank=rank:
            len(r) == n - rank and all(matmul_zero(M, k) for k in r))

    for length in (2, 3, 4, 6, 9, 14):
        # up to 4 factors on each side is small, 6 to 14 large
        size = SMALL if length <= 4 else 2 * SMALL
        for _ in range(INPUTS[size_class(size)]):
            m1 = m2 = None
            while m1 is None:
                m1 = G.monomial(rng, length, 0)
            while m2 is None:
                m2 = G.monomial(rng, length, rng.randint(0, 1))
            add("algebra.mono_mul", size, algebra.mono_mul,
                (m1, m2), lambda r, m1=m1, m2=m2: r == koszul_product(m1, m2))
    rng.shuffle(calls)  # large and small calls spread evenly over a cycle
    return calls


def accumulate(parts):
    acc = Poly.zero()
    for p in parts:
        acc = acc + p
    return acc


def low_rank_matrix(rng, n, rank):
    """A = [I; D] (n x rank) times B = [I | C] (rank x n) has rank exactly
    `rank`; rows and columns are then shuffled."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    A = [[Fraction(int(i == j)) if i < rank else entry() for j in range(rank)]
         for i in range(n)]
    B = [[Fraction(int(i == j)) if j < rank else entry() for j in range(n)]
         for i in range(rank)]
    M = [[sum((A[i][k] * B[k][j] for k in range(rank)), Fraction(0)) for j in range(n)]
         for i in range(n)]
    rng.shuffle(M)
    cols = list(range(n))
    rng.shuffle(cols)
    return [[row[c] for c in cols] for row in M]
