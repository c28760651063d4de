"""Deterministic text, DSL and LaTeX rendering of algebra elements.

One term loop renders a polynomial in every format; a per-format table
supplies the generator printer, the power syntax, the factor separator and
the coefficient printer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, NamedTuple

from .algebra import (
    BASE_THETA,
    BASE_X,
    FIBER,
    JET,
    VDIFF,
    Generator,
    Poly,
)


def _indices(t) -> str:
    return ",".join(str(i) for i in t)


def _decorated(g: Generator) -> str:
    """name[base indices]{lie index}, shared by the text and DSL forms."""
    s = g.name
    if g.base_index:
        s += f"[{_indices(g.base_index)}]"
    if g.lie_index is not None and g.lie_index >= 0:
        s += f"{{{g.lie_index + 1}}}"
    return s


def gen_text(g: Generator) -> str:
    if g.role == BASE_X:
        s = f"x{g.base_index[0]}"
    elif g.role == BASE_THETA:
        s = f"th{g.base_index[0]}"
    else:
        s = _decorated(g)
        if g.role in (JET, VDIFF):
            s += f"[{_indices(g.jet_I)}|{_indices(g.jet_J)}]"
    if g.fdeg:
        if g.role == VDIFF:
            # vdiff generators are created with the dv prefix in the name
            return s
        if not s.startswith("d"):
            s = "d" + s
    return s


def gen_dsl(g: Generator) -> str:
    if g.fdeg:
        inner = gen_dsl(g.space.coordinate_of(g))
        return f"dv({inner})" if g.role == VDIFF else f"d({inner})"
    if g.role == BASE_X:
        return f"x[{g.base_index[0]}]"
    if g.role == BASE_THETA:
        return f"theta[{g.base_index[0]}]"
    if g.role == FIBER:
        return _decorated(g)
    raise ValueError(f"generator {gen_text(g)} has no surface-syntax form")


def gen_latex(g: Generator) -> str:
    if g.fdeg and g.role != VDIFF:
        return r"\mathrm{d}" + gen_latex(g.space.coordinate_of(g))
    if g.role == VDIFF:
        return r"\mathrm{d_v}" + gen_latex(g.space.coordinate_of(g))
    if g.role == BASE_X:
        return rf"x^{{{g.base_index[0]}}}"
    if g.role == BASE_THETA:
        return rf"\theta^{{{g.base_index[0]}}}"
    sup = []
    if g.lie_index is not None and g.lie_index >= 0:
        sup.append(str(g.lie_index + 1))
    sub = list(str(i) for i in g.base_index)
    if g.role == JET:
        # the bar stays when J is empty: psi_{|} is not the bundle coordinate
        sub += [str(i) for i in g.jet_I] + ["|" + "".join(str(j) for j in g.jet_J)]
    # a DSL name may contain _: brace it so its scripts stay single
    s = "{" + g.name + "}" if "_" in g.name else g.name
    if sup:
        s += "^{" + " ".join(sup) + "}"
    if sub:
        s += "_{" + " ".join(sub) + "}"
    return s


def _latex_frac(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def _latex_power(t: str, e: int) -> str:
    # a base that already carries a script is braced: {F^{1}_{0 1}}^{2}
    if "^" in t or "_" in t:
        t = "{" + t + "}"
    return t + rf"^{{{e}}}"


class _Format(NamedTuple):
    gen: Callable[[Generator], str]
    power: Callable[[str, int], str]      # factor t raised to e > 1
    sep: str                              # between factors
    number: Callable[[Fraction], str]     # a coefficient on its own
    prefix: Callable[[Fraction], str]     # a coefficient other than +-1 before factors


TEXT = _Format(gen_text, lambda t, e: f"{t}^{e}", "*", str, lambda c: f"{c}*")
DSL = _Format(gen_dsl, lambda t, e: "*".join([t] * e), "*", str, lambda c: f"{c}*")
LATEX = _Format(gen_latex, _latex_power, r"\, ", _latex_frac, _latex_frac)


def _mono_sort_key(m):
    return tuple((g._sort, e) for g, e in m)


def render(p: Poly, fmt: _Format) -> str:
    """The one term loop behind every polynomial printer."""
    out = ""
    for m in sorted(p.terms, key=_mono_sort_key):
        c = p.terms[m]
        body = fmt.sep.join(fmt.gen(g) if e == 1 else fmt.power(fmt.gen(g), e) for g, e in m)
        if not body:
            frag = fmt.number(c)
        elif c == 1:
            frag = body
        elif c == -1:
            frag = "-" + body
        else:
            frag = fmt.prefix(c) + body
        if not out:
            out = frag
        elif frag.startswith("-"):
            out += " - " + frag[1:]
        else:
            out += " + " + frag
    return out or "0"


def poly_text(p: Poly) -> str:
    return render(p, TEXT)


def poly_dsl(p: Poly) -> str:
    return render(p, DSL)


def poly_latex(p: Poly) -> str:
    return render(p, LATEX)


def equations(pairs, poly=poly_text) -> List[str]:
    """'lhs = rhs' for (generator, Poly) pairs, both sides printed by poly."""
    return [f"{poly(Poly.gen(g))} = {poly(rhs)}" for g, rhs in pairs]
