"""Graded-commutative polynomial algebra over the rationals.

Generators carry an integer ghost number and a form degree (0 or 1); the
Koszul parity of a generator is (ghost + form degree) mod 2.  Polynomials
are dictionaries mapping canonical monomials to nonzero exact rationals, so
all arithmetic is exact and equality is literal dictionary equality.

Three invariants hold for every Poly: no stored coefficient is zero; every
stored coefficient is a `Scalar` in normal form, an int when it is integral
and a Fraction only when its denominator is not 1, never a float; and a Poly
owns its terms dict (no other Poly or caller shares it).  The public
constructor copies, filters and normalises its input to establish them;
every sum in the kernel is built in place by `accumulate`, which deletes
entries that cancel and stores an integral Fraction as its int numerator,
every product (Poly products, Lie brackets and pairings, the Leibniz terms
of `derive`) in place by `_mul_into`, which keeps the same contract, and
the result is handed to the unfiltered `Poly._adopt`.  `rational` is the
one conversion into normal form and refuses a float; `qdiv` is the one exact
quotient, since int / int is a float in Python.  `is_zero` and equality rely
on the first invariant, in-place accumulation on the last; the second keeps
the common integral coefficient out of the slower Fraction arithmetic.
A generator's ghost number, form degree and hence its parity are fixed at
construction (a conflicting redeclaration raises instead of mutating), so
`Generator.parity` is a stored attribute.  Generators are interned per Space,
which owns them (a generator's `space` is a weak back-reference, so the two
form no reference cycle), so equality is identity and a Generator keeps
object's own `==` and hash:
dict and set lookups hash in C.  A set of generators therefore iterates in an
order that depends on memory addresses; whatever must not depend on it walks
the generators in their canonical `_sort` order.

The kernels behind every jet verb, the de Rham differential, graded
derivations and substitution, do each piece of work once.  d and d_v
(`cartan.de_rham`) form no product: every image is one generator dg, which
is written into g's monomial and walked to its sorted slot, with sign
(-1)^(parity of the prefix) times (-1)^(p(dg) p(the factors it passes)).
`derive` serves the derivations whose images are sums (i_V, Q, D_a and
`jets.vertical_lie`).  It keeps, for one call, a table from each distinct
generator to its image terms (or None for a zero image), so image(g), its
normal form, the zero test and the space check run once per generator, in
order of first occurrence.  Each Leibniz term then costs one merge:
prefix * im * suffix equals (-1)^(p(im) p(suffix)) (prefix suffix) * im,
where prefix suffix is already canonical and p(im) is read off the image
term itself, since an image need not be homogeneous.  `substitute` moves
each monomial's mapped factors to the right of its unmapped factors U,
folding the Koszul sign into the coefficient, and multiplies the images
into {U: +-c} one at a time, left to right.  Starting from U, an image term
that repeats an odd factor of U (a theta, say) drops at its first merge,
not after the images have been multiplied out; a term with no mapped
factor is added as it is.  `lie_bracket` and `trace_pair` scale each term of
x^b * y^c by its structure constant or pairing entry as it is formed, into
one dict per result: no product of two components is built on its own.
"""

from __future__ import annotations

import itertools
import weakref
from collections import defaultdict
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Optional, Tuple, Union

Scalar = Union[int, Fraction]   # in normal form: int when integral


def rational(x) -> Scalar:
    """x as a coefficient in normal form: an int when it is integral, else a
    Fraction.  A float is refused, since its binary expansion is not the
    rational it was meant to be."""
    if type(x) is not Fraction:
        if type(x) is int:
            return x
        if not isinstance(x, Rational):
            raise TypeError(f"cannot coerce {type(x).__name__} into an exact rational")
        x = Fraction(int(x.numerator), int(x.denominator))
    return x.numerator if x.denominator == 1 else x


def qdiv(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b in normal form (int / int is a float in
    Python, so every division in gpde goes through here)."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


class GradedAlgebraError(Exception):
    """Base class for kernel errors."""


class ForeignGeneratorError(GradedAlgebraError):
    """Mixing generators from two different spaces."""


class DegreeError(GradedAlgebraError):
    """An operation received an argument of the wrong degree or parity."""


# generator roles, in canonical sort order
BASE_X = 0
BASE_THETA = 1
FIBER = 2
JET = 3
VDIFF = 4


class Generator:
    """A single graded coordinate or differential.

    Identity is structural: two declarations with the same key are the same
    object (interned per Space), so equality and hashing are by identity.
    The sort key is (role, name, indices, form degree): base coordinates,
    then fiber coordinates, jets and vertical differentials (VDIFF).  A full
    differential keeps its coordinate's role and sorts by its name "d" +
    name, so it need not sit next to its coordinate: dx sorts left of x,
    dtheta left of theta, dC after every F.  The Space owns its
    generators and a generator points back to it weakly, so neither keeps
    the other alive; `space` raises once the Space is gone.
    """

    __slots__ = (
        "_space",
        "role",
        "name",
        "gh",
        "fdeg",
        "base_index",
        "lie_index",
        "jet_I",
        "jet_J",
        "parity",
        "_sort",
    )

    def __init__(self, space, role, name, gh, fdeg, base_index, lie_index, jet_I, jet_J):
        self._space = weakref.ref(space)
        self.role = role
        self.name = name
        self.gh = gh
        self.fdeg = fdeg
        self.base_index = base_index
        self.lie_index = lie_index
        self.jet_I = jet_I
        self.jet_J = jet_J
        self.parity = (gh + fdeg) & 1
        li = -1 if lie_index is None else lie_index
        self._sort = (role, name, base_index, li, jet_I, jet_J, fdeg)

    @property
    def space(self) -> "Space":
        space = self._space()
        if space is None:
            raise GradedAlgebraError(f"the space of generator {self.name!r} is gone")
        return space

    def __repr__(self):
        return f"<gen {self.name} gh={self.gh} fdeg={self.fdeg}>"


def _unify(a: Optional["Space"], b: Optional["Space"]) -> Optional["Space"]:
    if a is None:
        return b
    if b is None:
        return a
    if a is not b:
        raise ForeignGeneratorError(
            f"cannot combine elements of space {a.label!r} with space {b.label!r}"
        )
    return a


class Space:
    """Registry of generators for one model (including its jets).

    A Space owns interning: declaring the same structural key twice with a
    different ghost number is an error, with the same ghost number returns
    the existing generator.  With declare=False an unregistered key is
    looked up only and gives None.  The registries own the generators;
    a generator refers back to its Space weakly, so a Space is freed by
    reference counting once no model, form or Poly holds it.
    """

    _counter = itertools.count()

    def __init__(self, label: str = ""):
        self.label = label or f"space{next(Space._counter)}"
        self._gens: dict = {}
        self._diff: dict = {}          # coordinate -> its differential
        self._vdiff: dict = {}         # coordinate -> its vertical differential
        self._coord_of: dict = {}      # differential -> coordinate

    def coordinate(self, name, role, gh, base_index=(), lie_index=None,
                   jet_I=(), jet_J=(), fdeg=0,
                   declare: bool = True) -> Optional[Generator]:
        li = -1 if lie_index is None else lie_index
        key = (role, name, base_index, li, jet_I, jet_J, fdeg)
        g = self._gens.get(key)
        if g is not None:
            if g.gh != gh:
                raise GradedAlgebraError(
                    f"generator {name!r} redeclared with ghost {gh}, was {g.gh}"
                )
            return g
        if not declare:
            return None
        g = Generator(self, role, name, gh, fdeg, base_index, lie_index, jet_I, jet_J)
        self._gens[key] = g
        return g

    def differential(self, g: Generator, vertical: bool = False) -> Generator:
        if g.fdeg != 0:
            raise DegreeError(f"{g.name} is already a differential")
        table = self._vdiff if vertical else self._diff
        dg = table.get(g)
        if dg is None:
            role = VDIFF if vertical else g.role
            prefix = "dv" if vertical else "d"
            dg = self.coordinate(prefix + g.name, role, g.gh,
                                 base_index=g.base_index, lie_index=g.lie_index,
                                 jet_I=g.jet_I, jet_J=g.jet_J, fdeg=1)
            table[g] = dg
            self._coord_of[dg] = g
        return dg

    def coordinate_of(self, dg: Generator) -> Generator:
        try:
            return self._coord_of[dg]
        except KeyError:
            raise DegreeError(f"{dg.name} is not a differential") from None

    def generators(self):
        return list(self._gens.values())


Monomial = tuple  # tuple[tuple[Generator, int], ...] sorted by generator


def mono_mul(m1: Monomial, m2: Monomial):
    """Merge two canonical monomials.  Returns (sign, monomial) or None if an
    odd generator squares to zero.

    One pass: a factor of m2 that moves left past the factors of m1 still to
    be emitted picks up the parity of their odd count.  Generators are
    interned per Space and operands are unified first, so equal generators
    are identical objects."""
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    odd = 0            # odd-generator factors of m1 not yet emitted
    for g, e in m1:
        if g.parity:
            odd += e
    out = []
    append = out.append
    sign = 1
    i = j = 0
    n1, n2 = len(m1), len(m2)
    g1, e1 = f1 = m1[0]
    g2, e2 = f2 = m2[0]
    while True:
        if g1 is g2:
            if g1.parity:
                return None
            append((g1, e1 + e2))
            i += 1
            j += 1
            if i == n1 or j == n2:
                break
            g1, e1 = f1 = m1[i]
            g2, e2 = f2 = m2[j]
        elif g1._sort < g2._sort:
            append(f1)
            if g1.parity:
                odd -= e1
            i += 1
            if i == n1:
                break
            g1, e1 = f1 = m1[i]
        else:
            # g2 moves left past the odd factors of m1 not yet emitted
            if g2.parity and odd & 1:
                sign = -sign
            append(f2)
            j += 1
            if j == n2:
                break
            g2, e2 = f2 = m2[j]
    return sign, tuple(out) + m1[i:] + m2[j:]


def mono_parity(m: Monomial) -> int:
    p = 0
    for g, e in m:
        p += g.parity * e
    return p & 1


def mono_gh(m: Monomial) -> int:
    return sum(g.gh * e for g, e in m)


def mono_fdeg(m: Monomial) -> int:
    return sum(g.fdeg * e for g, e in m)


def accumulate(acc: dict, pairs) -> dict:
    """Add (monomial, coefficient) pairs into acc in place and return it.

    Entries that cancel are deleted, zero coefficients are never stored and
    an integral Fraction is stored as its int numerator, so a dict built
    only through this function from Scalar coefficients may be adopted by a
    Poly without filtering.  Every sum in the kernel goes through here, and
    every product through `_mul_into`, which keeps the same contract."""
    get = acc.get
    for m, c in pairs:
        old = get(m)
        if old is not None:
            c = old + c
            if not c:
                del acc[m]
                continue
        elif not c:
            continue
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        acc[m] = c
    return acc


def _mul_into(acc: dict, pairs, terms: Mapping[Monomial, Scalar], scale: Scalar = 1) -> dict:
    """Add scale * sum prefix * (coeff * terms) over the (prefix, coeff)
    pairs into acc in place and return it, with Koszul signs; products in
    which an odd generator squares are dropped.  Every coefficient and
    scale is nonzero.  The contract is accumulate's: entries that cancel
    are deleted and an integral Fraction is stored as its int.  Every
    product in the kernel goes through here.  A unit coeff costs no
    product, a term coefficient of int 1 or -1 only a sign, and coeff is
    negated at most once per prefix."""
    get = acc.get
    items = terms.items()
    scaled = scale != 1
    for prefix, coeff in pairs:
        if scaled:
            coeff = coeff * scale
        unit = coeff == 1
        neg = None
        for m, c in items:
            r = mono_mul(prefix, m)
            if r is None:
                continue
            sign, m = r
            if unit:
                if sign < 0:
                    c = -c
            elif type(c) is int and (c == 1 or c == -1):
                if (sign > 0) == (c > 0):
                    c = coeff
                else:
                    if neg is None:
                        neg = -coeff
                    c = neg
            else:
                c = coeff * (c if sign > 0 else -c)
            old = get(m)
            if old is not None:
                c = old + c
                if not c:
                    del acc[m]
                    continue
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            acc[m] = c
    return acc


def _product(a: Mapping[Monomial, Scalar], b: Mapping[Monomial, Scalar]) -> dict:
    """The terms dict of the graded product a * b."""
    return _mul_into({}, a.items(), b)


class Poly:
    """Polynomial in graded generators with exact rational coefficients.

    terms: dict mapping canonical monomial tuples to nonzero Scalars in
    normal form (int when integral, Fraction otherwise).
    space is None for pure scalars and unifies on every binary operation.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: Optional[Space], terms: Mapping[Monomial, Scalar]):
        self.space = space
        # each coefficient is read before the zero test, so a float zero is refused too
        self.terms = {m: r for m, c in terms.items()
                      if (r := c if type(c) is int else rational(c))}

    # constructors -----------------------------------------------------

    @classmethod
    def _adopt(cls, space: Optional[Space], terms: dict) -> "Poly":
        """Take ownership of terms without filtering.  Only for a dict the
        kernel has just built, holds no zero coefficient and shares with
        no one (see the module docstring)."""
        p = cls.__new__(cls)
        p.space = space
        p.terms = terms
        return p

    @staticmethod
    def scalar(c: Scalar) -> "Poly":
        c = rational(c)
        return Poly._adopt(None, {(): c} if c else {})

    @staticmethod
    def gen(g: Generator) -> "Poly":
        return Poly._adopt(g.space, {((g, 1),): 1})

    @staticmethod
    def zero() -> "Poly":
        return Poly._adopt(None, {})

    # queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _degree(self, of, what: str) -> Optional[int]:
        """The degree of(m) shared by every monomial, None when there is
        none; raises DegreeError, "polynomial is not <what>", when they
        differ."""
        ds = {of(m) for m in self.terms}
        if len(ds) > 1:
            raise DegreeError(f"polynomial is not {what}")
        return ds.pop() if ds else None

    def parity(self) -> Optional[int]:
        """Koszul parity if homogeneous, else raises DegreeError."""
        return self._degree(mono_parity, "parity-homogeneous")

    def fdeg(self) -> Optional[int]:
        return self._degree(mono_fdeg, "form-degree homogeneous")

    def gh(self) -> Optional[int]:
        return self._degree(mono_gh, "ghost-homogeneous")

    def generators(self):
        seen = set()
        for m in self.terms:
            for g, _ in m:
                seen.add(g)
        return seen

    def form_component(self, k: int) -> "Poly":
        return self.filter(lambda m: mono_fdeg(m) == k)

    def filter(self, pred) -> "Poly":
        return Poly._adopt(self.space, {m: c for m, c in self.terms.items() if pred(m)})

    def num_terms(self) -> int:
        return len(self.terms)

    # arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = normal_form(other)
        space = _unify(self.space, other.space)
        if len(self.terms) < len(other.terms):
            small, big = self.terms, other.terms
        else:
            small, big = other.terms, self.terms
        return Poly._adopt(space, accumulate(dict(big), small.items()))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._adopt(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-normal_form(other))

    def __rsub__(self, other) -> "Poly":
        return normal_form(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = normal_form(other)
        space = _unify(self.space, other.space)
        return Poly._adopt(space, _product(self.terms, other.terms))

    def __rmul__(self, other) -> "Poly":
        # scalars commute with everything
        return self * other

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.terms and set(other.terms) == {()}:
                other = other.terms[()]
            else:
                raise DegreeError("division only by nonzero scalars")
        c = rational(other)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly._adopt(self.space, {m: qdiv(v, c) for m, v in self.terms.items()})

    def __eq__(self, other):
        try:
            return self.terms == normal_form(other).terms
        except TypeError:
            return NotImplemented

    def __hash__(self):
        # a Poly equal to a scalar or to a generator hashes like it
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            if not m or (c == 1 and len(m) == 1 and m[0][1] == 1):
                return hash(m[0][0] if m else c)
        return hash(frozenset(self.terms.items())) if self.terms else 0

    def __repr__(self):
        from .printing import poly_text
        return poly_text(self)

    # substitution -----------------------------------------------------

    def substitute(self, mapping: Mapping[Generator, "Poly"]) -> "Poly":
        """Simultaneous substitution g -> mapping[g].  Images must be
        parity-homogeneous of the generator's parity (or zero), and of this
        Poly's space."""
        images = {}
        for g, img in mapping.items():
            img = normal_form(img)
            if img.terms and img.parity() != g.parity:
                raise DegreeError(f"substitution image for {g.name} has wrong parity")
            _unify(self.space, img.space)
            images[g] = img.terms
        factors: dict = {}      # (g, e) -> terms of the image of g^e, per call
        out: dict = {}
        for m, c in self.terms.items():
            # move the mapped factors right of the unmapped ones U, in order
            unmapped, mapped = [], []
            odd = 0             # parity of the mapped factors met so far
            for f in m:
                g = f[0]
                if g in images:
                    mapped.append(f)
                    odd ^= g.parity     # an odd generator has exponent 1
                else:
                    unmapped.append(f)
                    if g.parity & odd:
                        c = -c
            if not mapped:
                accumulate(out, ((m, c),))
                continue
            term = {tuple(unmapped): c}
            for f in mapped:
                t = factors.get(f)
                if t is None:
                    g, e = f
                    t = base = images[g]
                    for _ in range(e - 1):
                        t = _product(t, base)
                    factors[f] = t
                term = _product(term, t)
                if not term:
                    break
            accumulate(out, term.items())
        return Poly._adopt(self.space, out)


def normal_form(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, Generator):
        return Poly.gen(x)
    if isinstance(x, (int, Fraction)):
        return Poly.scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into the graded algebra")


def derive(p: Poly, parity: int, image) -> Poly:
    """Apply a graded derivation of the given parity to p.

    image(g) must return the derivation's value on each generator (Poly or
    anything normal_form accepts, or None for zero); it is called once per
    distinct generator of p.  Left Leibniz rule: the sign picked up moving
    the derivation past a monomial prefix of parity q is (-1)^(parity*q).
    """
    space = p.space
    acc: dict = {}
    # generator -> (image terms, the same with odd terms negated), or None
    table: dict = {}
    get = table.get
    for m, c in p.terms.items():
        total = None            # parity of m, read when a factor has an image
        prefix_parity = 0
        for idx, (g, e) in enumerate(m):
            entry = get(g, False)
            if entry is False:
                img = image(g)
                if img is not None:
                    img = normal_form(img)
                entry = None
                if img is not None and img.terms:
                    space = _unify(space, img.space)
                    entry = (img.terms, {im: -ic if mono_parity(im) else ic
                                         for im, ic in img.terms.items()})
                table[g] = entry
            if entry is not None:
                # d(g^e) = e g^(e-1) dg for even g; odd g has e == 1; the
                # image moves right past the suffix (see the module docstring)
                if total is None:
                    total = mono_parity(m)
                if e > 1:
                    coeff = c * e
                    rest = m[:idx] + ((g, e - 1),) + m[idx + 1:]
                else:
                    coeff = c
                    rest = m[:idx] + m[idx + 1:]
                if parity & prefix_parity:
                    coeff = -coeff
                suffix_parity = total ^ prefix_parity ^ (g.parity & e)
                _mul_into(acc, ((rest, coeff),), entry[suffix_parity])
            prefix_parity ^= g.parity & e
    return Poly._adopt(space, acc)


def partials(p: Poly, column: Mapping[Generator, object]) -> dict:
    """{column[g]: terms of the left partial derivative of p along g} for
    the generators g in column, summed over those sharing a key, in one walk
    over p's terms.  Removing one factor g is a derivation of the parity of
    g, so it picks up the left-Leibniz sign of derive(), (-1)^(parity(g) *
    parity of the monomial prefix), and g^e leaves e copies of g^(e-1)."""
    acc: dict = {}
    for m, c in p.terms.items():
        prefix = 0
        for idx, (g, e) in enumerate(m):
            A = column.get(g)
            if A is not None:
                coeff = c * e if e > 1 else c
                if prefix & g.parity:
                    coeff = -coeff
                rest = m[:idx] + ((g, e - 1),) if e > 1 else m[:idx]
                accumulate(acc.setdefault(A, {}), ((rest + m[idx + 1:], coeff),))
            prefix ^= g.parity & e
    return acc


def theta_split(p: Poly):
    """Each term of p as (J, rest, monomial, coefficient) with monomial the
    term's own and p == sum coefficient * theta^J * rest: J lists the base
    directions of its theta coordinates (not their differentials) and rest
    is the monomial without them.  Each theta moving left past an odd factor
    (an odd dx sorts left of every theta) flips the sign of the coefficient.
    Every split by theta level is a view over this one."""
    for mono, c in p.terms.items():
        J, rest, odd = [], [], 0
        for f in mono:
            g = f[0]
            if g.role == BASE_THETA and not g.fdeg:
                J.append(g.base_index[0])
                c = -c if odd else c
            else:
                rest.append(f)
                odd ^= g.parity & f[1]
        yield tuple(J), tuple(rest), mono, c


# Lie algebra data ----------------------------------------------------


class LieAlgebraData:
    """Structure constants and invariant pairing for an internal Lie algebra.

    f is stored densely as a dim^3 nested tuple f[a][b][c] (value of the
    a-component of [e_b, e_c]); kappa as a dim x dim symmetric matrix.
    Indices here are 0-based.
    """

    def __init__(self, name: str, dim: int, f, kappa):
        self.name = name
        self.dim = dim
        self.f = tuple(tuple(tuple(rational(x) for x in row) for row in plane) for plane in f)
        self.kappa = tuple(tuple(rational(x) for x in row) for row in kappa)
        self.validate()

    def validate(self):
        d = self.dim
        if d < 1:
            raise GradedAlgebraError("lie dimension must be at least 1")
        f, k = self.f, self.kappa
        for a in range(d):
            for b in range(d):
                if k[a][b] != k[b][a]:
                    raise GradedAlgebraError(f"kappa not symmetric in lie {self.name!r}")
                for c in range(d):
                    if f[a][b][c] != -f[a][c][b]:
                        raise GradedAlgebraError(
                            f"structure constants not antisymmetric in lie {self.name!r}"
                        )
        nonzero = [(e, a, b, f[e][a][b]) for e in range(d) for a in range(d)
                   for b in range(d) if f[e][a][b]]
        # Jacobi: J[m][a][b][c] = sum_e f[e][a][b] f[m][e][c] + cyclic(a,b,c) = 0.
        # With f antisymmetric in its last two slots J is totally antisymmetric
        # in (a,b,c), so only a < b < c is checked; the term of (a,b,c) counts
        # there when it is a cyclic rotation of an increasing triple.
        by_middle = defaultdict(list)   # e -> [(m, c, f[m][e][c])]
        for m, e, c, v in nonzero:
            by_middle[e].append((m, c, v))
        jac: dict = defaultdict(int)
        for e, a, b, v in nonzero:
            for m, c, w in by_middle[e]:
                if a < b < c or b < c < a or c < a < b:
                    jac[(m, *sorted((a, b, c)))] += v * w
        if any(jac.values()):
            raise GradedAlgebraError(f"Jacobi identity fails in lie {self.name!r}")
        # invariance: kappa([x,y],z) + kappa(y,[x,z]) = 0, i.e.
        # sum_e k[e][c] f[e][a][b] + k[b][e] f[e][a][c] = 0 for all a, b, c
        inv: dict = defaultdict(int)
        for e, a, b, v in nonzero:
            for c, w in enumerate(k[e]):
                if w:
                    inv[a, b, c] += w * v
                    inv[a, c, b] += w * v     # k[c][e] = k[e][c]
        if any(inv.values()):
            raise GradedAlgebraError(f"kappa not invariant in lie {self.name!r}")

    @staticmethod
    def su2() -> "LieAlgebraData":
        d = 3
        f = [[[0] * d for _ in range(d)] for _ in range(d)]
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            f[a][b][c] = 1
            f[a][c][b] = -1
        kappa = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        return LieAlgebraData("su2", d, f, kappa)

    @staticmethod
    def abelian(dim: int = 1, name: str = "u1") -> "LieAlgebraData":
        f = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        kappa = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        return LieAlgebraData(name, dim, f, kappa)


class LieValued:
    """Tuple of polynomials indexed by a Lie algebra basis."""

    __slots__ = ("lie", "components")

    def __init__(self, lie: LieAlgebraData, components: Iterable):
        comps = tuple(normal_form(c) for c in components)
        if len(comps) != lie.dim:
            raise GradedAlgebraError("component count does not match lie dimension")
        self.lie = lie
        self.components = comps

    def __getitem__(self, i):
        return self.components[i]

    def __add__(self, other):
        self._check(other)
        return LieValued(self.lie, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        self._check(other)
        return LieValued(self.lie, [a - b for a, b in zip(self.components, other.components)])

    def __rmul__(self, c):
        return LieValued(self.lie, [normal_form(c) * a for a in self.components])

    def _check(self, other):
        if not isinstance(other, LieValued) or other.lie is not self.lie:
            raise GradedAlgebraError("mixing values of different lie algebras")

    def is_zero(self):
        return all(c.is_zero() for c in self.components)


def _pairing(table, x: LieValued, y: LieValued) -> Poly:
    """table_{bc} x^b y^c over a dim x dim coefficient table (an f plane, or
    kappa), factors kept in the given order."""
    space = None
    acc: dict = {}
    for b, row in enumerate(table):
        for c, coef in enumerate(row):
            if coef:
                xb, yc = x[b], y[c]
                space = _unify(space, _unify(xb.space, yc.space))
                _mul_into(acc, xb.terms.items(), yc.terms, coef)
    return Poly._adopt(space, acc)


def lie_bracket(x: LieValued, y: LieValued) -> LieValued:
    """[x, y]^a = f^a_{bc} x^b y^c.  Works for any parity of the entries;
    signs come from the graded product of the component polynomials."""
    x._check(y)
    return LieValued(x.lie, [_pairing(plane, x, y) for plane in x.lie.f])


def trace_pair(x: LieValued, y: LieValued) -> Poly:
    """kappa(x, y) = kappa_{ab} x^a y^b, factors kept in the given order."""
    x._check(y)
    return _pairing(x.lie.kappa, x, y)


# background tensors ---------------------------------------------------


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of distinct integers."""
    perm = list(perm)
    n = len(perm)
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def sort_sign(indices) -> Tuple[int, tuple]:
    """(sign, sorted tuple) of a sequence of indices: the sign of the
    permutation that sorts it, or 0 when an index repeats."""
    indices = tuple(indices)
    srt = tuple(sorted(indices))
    if len(set(srt)) != len(srt):
        return 0, srt
    return perm_sign(indices), srt


class BackgroundTensors:
    """Diagonal metric, its inverse, and the Levi-Civita symbol on the base."""

    def __init__(self, diag: Iterable[Scalar]):
        d = tuple(rational(x) for x in diag)
        if any(x == 0 for x in d):
            raise GradedAlgebraError("metric diagonal entries must be nonzero")
        self.dim = len(d)
        self.diag = d

    def eta(self, a: int, b: int) -> Scalar:
        return self.diag[a] if a == b else 0

    def inveta(self, a: int, b: int) -> Scalar:
        return qdiv(1, self.diag[a]) if a == b else 0

    def eps(self, indices) -> int:
        indices = tuple(indices)
        if len(indices) != self.dim:
            raise DegreeError("epsilon needs exactly base-dimension indices")
        return sort_sign(indices)[0]


def theta_basis(thetas, indices) -> Poly:
    """Density-weighted top form with k indices left open:
    (1/(n-k)!) eps_{i1..ik j1..j(n-k)} theta^{j1}..theta^{j(n-k)}.

    thetas: sequence of the n odd base differentials (theta generators) in
    index order.  With all indices distinct this is a single monomial
    eps(indices + complement) * theta^{complement sorted}.
    """
    indices = tuple(indices)
    complement = tuple(sorted(set(range(len(thetas))) - set(indices)))
    sign, _ = sort_sign(indices + complement)
    if not sign:
        return Poly.zero()
    mono = tuple((thetas[j], 1) for j in complement)
    space = thetas[0].space if thetas else None
    return Poly(space, {mono: sign})
