"""Vector fields, de Rham and vertical differentials, and contraction.

Conventions used throughout the kernel:
  * d is a left derivation of parity 1 with d(coord) = dcoord, d(dcoord) = 0.
  * i_V has parity parity(V)+1 and contracts any differential to the field's
    coefficient on the underlying coordinate: i_V(dc) = V(c), i_V(c) = 0.
  * L_V is the graded commutator [i_V, d] = i_V d - (-1)^{parity(i_V)} d i_V,
    so L_V acts as +V on functions for every parity of V.  No function here
    builds it: the checks read it off Cartan's formula on closed forms
    (model.presymplectic_residuals, jets.descent_residuals).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from .algebra import (
    FIBER,
    JET,
    DegreeError,
    Generator,
    Poly,
    Space,
    accumulate,
    derive,
    normal_form,
)


class VectorField:
    """Graded vector field given by coefficients on coordinate generators.

    coeffs maps coordinates to coefficient polynomials (0-forms).  rule, if
    supplied, produces coefficients on demand for coordinates not yet in the
    table; results are memoized.  Coefficients must be 0-forms whose parity
    is coordinate parity + field parity, checked on first access.
    """

    def __init__(self, space: Space, gh: int,
                 coeffs: Optional[Mapping[Generator, object]] = None,
                 rule: Optional[Callable[[Generator], object]] = None,
                 name: str = ""):
        self.space = space
        self.gh = gh
        self.name = name or "V"
        self.rule = rule
        self._coeffs: dict = {}
        if coeffs:
            for g, v in coeffs.items():
                self._coeffs[g] = self._validate(g, normal_form(v))

    @property
    def parity(self) -> int:
        return self.gh & 1

    def _validate(self, g: Generator, v: Poly) -> Poly:
        if g.fdeg:
            raise DegreeError(f"vector field coefficient declared on a differential")
        if not v.is_zero():
            if v.fdeg() != 0:
                raise DegreeError(f"coefficient of {self.name} on {g.name} is not a function")
            if v.parity() != (g.parity + self.parity) % 2:
                raise DegreeError(f"coefficient of {self.name} on {g.name} has wrong parity")
        return v

    def coefficient(self, g: Generator) -> Poly:
        v = self._coeffs.get(g)
        if v is None:
            if self.rule is not None:
                raw = self.rule(g)
                v = self._validate(g, normal_form(raw if raw is not None else 0))
            else:
                v = Poly.zero()
            self._coeffs[g] = v
        return v

    def apply(self, p) -> Poly:
        """Act as a derivation on a function (0-form)."""
        return derive(normal_form(p), self.parity, self._image)

    def _image(self, g: Generator):
        # derive asks once per distinct generator, so a differential is
        # refused here, whether or not the field has a coefficient on it
        if g.fdeg:
            raise DegreeError("vector fields act on functions; contract forms with interior()")
        # a field without a rule has all its coefficients declared: an
        # undeclared generator is not moved, and no zero Poly is stored
        v = self.coefficient(g) if self.rule is not None else self._coeffs.get(g)
        return v if v is not None and not v.is_zero() else None

    def __repr__(self):
        return f"<vector field {self.name} gh={self.gh}>"


def de_rham(p, vertical: bool = False) -> Poly:
    """The differential d (or the vertical differential with vertical=True).

    d sends every coordinate to its differential and every differential to
    zero; the vertical differential moves only fiber and jet coordinates.
    In closed form, with no monomial product: each factor g^e that d moves
    gives e g^(e-1) with dg in g's slot, signed (-1)^(parity of the prefix),
    and dg then walks to its sorted slot, which need not be next to g (dx
    sorts left of x, dC right of every F), with sign (-1)^(p(dg) p(the
    factors it passes)).  An even dg already there gains one power; an odd
    one kills the term.
    """
    p = normal_form(p)
    space = p.space
    if space is None:
        return Poly.zero()
    diff: dict = {}     # generator -> its differential, or None when d fixes it

    def terms():
        for m, c in p.terms.items():
            odd = 0         # parity of the factors before g
            for idx, (g, e) in enumerate(m):
                dg = diff.get(g, False)
                if dg is False:
                    moved = not g.fdeg and (not vertical or g.role in (FIBER, JET))
                    dg = diff[g] = space.differential(g, vertical) if moved else None
                if dg is not None:
                    coeff = -c if odd else c
                    if e > 1:
                        coeff *= e
                        rest = m[:idx] + ((g, e - 1),) + m[idx + 1:]
                    else:
                        rest = m[:idx] + m[idx + 1:]
                    # walk dg from g's slot to its own; rest[j] is then any dg already there
                    key, j, flip = dg._sort, idx + (e > 1), 0
                    while j and key <= rest[j - 1][0]._sort:
                        j -= 1
                        flip ^= rest[j][0].parity & rest[j][1]
                    while j < len(rest) and rest[j][0]._sort < key:
                        flip ^= rest[j][0].parity & rest[j][1]
                        j += 1
                    if j == len(rest) or rest[j][0] is not dg:
                        yield (rest[:j] + ((dg, 1),) + rest[j:],
                               -coeff if flip & dg.parity else coeff)
                    elif not dg.parity:
                        yield rest[:j] + ((dg, rest[j][1] + 1),) + rest[j + 1:], coeff
                odd ^= g.parity & e

    return Poly._adopt(space, accumulate({}, terms()))


def d_vertical(p) -> Poly:
    return de_rham(p, vertical=True)


def interior(V: VectorField, p) -> Poly:
    """Contraction i_V: differentials (horizontal and vertical) are replaced
    by the field's coefficient on the underlying coordinate."""
    p = normal_form(p)
    space = p.space
    if space is None:
        return Poly.zero()
    ipar = (V.parity + 1) % 2

    def img(g):
        if not g.fdeg:
            return None
        c = V.coefficient(space.coordinate_of(g))
        return c if not c.is_zero() else None

    return derive(p, ipar, img)
