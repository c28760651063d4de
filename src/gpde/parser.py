"""Model definition language: lexer, Pratt expression parser, evaluator.

A model file is a sequence of declarations:

    base dim = 4;
    metric = diag(-1, 1, 1, 1);
    lie su2 { dim = 3; f[1][2][3] = 1; antisymmetrize; kappa = diag(1, 1, 1); }
    coord C : gh = 1 in su2;
    coord F[a, b] : gh = 0 antisym in su2;
    Q C = -1/2*[C, C] + 1/2*theta[a]*theta[b]*F[a, b];
    Q F[a, b] = [F[a, b], C];
    chi = inveta[a, c]*inveta[b, d]*theta(2; a, b)*Tr(F[c, d]*d(C));
    weak = true;

Expressions support + - * /, unary minus, the bracket [X, Y], Tr(...) with
exactly two Lie-valued factors per term, the de Rham differential d(...),
theta(k; i1..ik) volume cofactors, and eps/eta/inveta (metric required).
A reference X{k} selects the k-th component (1..dim) of a Lie-valued
coordinate, on either side of a Q-rule.  A denominator must expand to
constant terms only; their sum is the divisor, and a zero sum is an error.
The parser distributes each expression into terms as it reads it, checking
each denominator then; a Factor is built once and carries the memo of its
values over its statement, which the Evaluator reads.
An index variable (any name in index position) repeated in an additive term is
summed over the base range; one appearing once must be bound by the left side.
A comment runs from `#` or `//` to the end of the line.  An int literal is
ASCII digits, a name starts with a letter or `_` and goes on with Unicode word
characters, and any other character is one diagnostic.
"""

from __future__ import annotations

import itertools
import os
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import (
    GradedAlgebraError,
    LieAlgebraData,
    LieValued,
    Poly,
    Scalar,
    lie_bracket,
    qdiv,
    sort_sign,
    theta_basis,
    trace_pair,
)
from .cartan import de_rham
from .model import Model, ModelBuilder, base_q

RESERVED = {"x", "theta", "d", "Tr", "eps", "eta", "inveta", "diag",
            "base", "metric", "lie", "coord", "Q", "chi", "weak",
            "include", "model", "true", "false"}

PUNCT = ";:,=+-*/()[]{}"


class Span:
    __slots__ = ("source", "line", "col")

    def __init__(self, source, line, col):
        self.source = source
        self.line = line
        self.col = col

    def __str__(self):
        if self.line is None:
            return self.source
        return f"{self.source}:{self.line}:{self.col}"


class Diagnostic(NamedTuple):
    severity: str
    message: str
    span: Optional[Span]
    hint: Optional[str] = None

    def __str__(self):
        loc = f"{self.span}: " if self.span else ""
        out = f"{loc}{self.severity}: {self.message}"
        if self.hint:
            out += f" ({self.hint})"
        return out


class DslError(GradedAlgebraError):
    """Raised when parsing produced at least one error diagnostic."""

    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = diagnostics
        msg = "; ".join(str(d) for d in diagnostics if d.severity == "error")
        super().__init__(msg or "model file is invalid")


def _error(message: str, span: Optional[Span], hint: Optional[str] = None) -> DslError:
    """The DslError carrying one error diagnostic; callers raise it."""
    return DslError([Diagnostic("error", message, span, hint)])


def _given(span: Span, rule, *args, **kwargs):
    """rule(*args, **kwargs), a ModelBuilder call; the rule it refuses is
    an error diagnostic at span."""
    try:
        return rule(*args, **kwargs)
    except GradedAlgebraError as e:
        raise _error(str(e), span) from None


class Token:
    __slots__ = ("kind", "value", "span")

    def __init__(self, kind, value, span):
        self.kind = kind
        self.value = value
        self.span = span


# blanks and a comment, then a newline, an int literal, a word, another character or the end
_TOKEN = re.compile(r"([ \t\r]*(?:(?:#|//)[^\n]*)?)(?:(\n)|([0-9]+)|(\w+)|(.)|\Z)", re.S)


def tokenize(text: str, source: str, diags: List[Diagnostic]) -> List[Token]:
    """Tokens of text and an eof token; each unexpected character goes to diags."""
    toks = []
    line, line_start, start = 1, 0, 0
    while start is not None:   # scanned again only after a word that starts badly
        i, start = start, None
        for blank, newline, number, word, other in _TOKEN.findall(text, i):
            i += len(blank)
            if newline:
                i += 1
                line, line_start = line + 1, i
                continue
            span = Span(source, line, i - line_start + 1)
            if other:
                i += 1
                if other in PUNCT:
                    toks.append(Token(other, other, span))
                else:
                    diags.append(Diagnostic("error", f"unexpected character {other!r}", span))
            elif word:
                if not (word[0].isalpha() or word[0] == "_"):
                    diags.append(Diagnostic("error", f"unexpected character {word[0]!r}", span))
                    start = i + 1
                    break
                i += len(word)
                toks.append(Token("name", word, span))
            elif number:
                i += len(number)
                toks.append(Token("int", int(number), span))
    # the value is what a diagnostic prints as the found token
    toks.append(Token("eof", "end of file", Span(source, line, i - line_start + 1)))
    return toks


# expressions, distributed as they are read ----------------------------------


class Factor:
    """One factor of a distributed term, built once as it is read.  parts
    are, by kind: "ref" the name, index atoms and lie selector; "theta_basis"
    the index atoms; "bracket" both arguments; "d" and "tr" the argument itself.
    An argument is an expression already distributed, (terms, span).  vars
    names each occurrence of an index variable in the factor, arguments
    included; memo holds its values during its statement, keyed by theirs."""

    __slots__ = ("kind", "parts", "span", "vars", "memo")

    def __init__(self, kind: str, parts: tuple, span: Span):
        self.kind, self.parts, self.span, self.memo = kind, parts, span, {}
        if kind in ("ref", "theta_basis"):
            atoms = parts[1] if kind == "ref" else parts
            self.vars = tuple(a[1] for a in atoms if a[0] == "var")
        else:   # each factor of an argument once, however many terms hold it
            args = parts if kind == "bracket" else (parts,)
            inner = dict.fromkeys(f for terms, _ in args for _, fs in terms for f in fs)
            self.vars = tuple(v for f in inner for v in f.vars)


_MIXED_LIE = "mixing values of different lie algebras"


class Evaluator:
    """Turns distributed expressions into Poly / LieValued values over a builder.

    During one statement, over every value of its left-hand indices, each
    factor is evaluated once per assignment of the index variables that
    occur in it; later uses read the memo the factor carries, which goes
    with the statement's expression.  Only a factor that evaluated without
    error has a memo entry."""

    def __init__(self, builder: ModelBuilder):
        self.b = builder

    def statement_value(self, expr, bound: Dict[str, int], in_tr=False):
        """Evaluate a distributed expression with Einstein summation over
        repeated free variables.  The statement binds every variable of a
        bracket, d(...) or Tr(...) argument."""
        terms, span = expr
        total = None
        for coeff, factors in terms:
            names = [v for f in factors for v in f.vars]
            dummies = []
            for v in sorted(set(names)):
                if v in bound:
                    continue
                if names.count(v) == 1:
                    raise _error(f"index variable {v!r} appears once and is not "
                                 f"bound by the left-hand side", span,
                                 hint="repeated variables are summed")
                dummies.append(v)
            env = dict(bound)
            # the first dummy varies slowest; most terms have none to bind
            for values in itertools.product(self.b.base_indices, repeat=len(dummies)):
                if dummies:
                    env.update(zip(dummies, values))
                total = self._add(total, self.eval_term(coeff, factors, env, in_tr), span)
        return total if total is not None else Poly.zero()

    def _add(self, a, b, span):
        if a is None:
            return b
        if isinstance(a, LieValued) != isinstance(b, LieValued):
            if isinstance(a, Poly) and a.is_zero():
                return b
            if isinstance(b, Poly) and b.is_zero():
                return a
            raise _error("cannot add a scalar and a lie-algebra valued expression", span)
        if isinstance(a, LieValued) and a.lie is not b.lie:
            raise _error(_MIXED_LIE, span)
        if b.is_zero():
            return a
        return a + b

    def eval_term(self, coeff, factors, env, in_tr):
        # a unit coefficient is not multiplied in: the first factor starts the product
        value = None if factors and coeff == 1 else Poly.scalar(coeff)
        paired = 0
        for f in factors:
            v = self.eval_factor(f, env)
            if value is None:
                value = v
            else:
                value, paired = self._mul(value, v, in_tr, paired, f.span)
        if in_tr and (paired != 1 or isinstance(value, LieValued)):
            raise _error("Tr needs exactly two lie-algebra valued factors in "
                         "each term", factors[-1].span if factors else None)
        return value

    def _mul(self, a, b, in_tr, paired, span):
        a_lie = isinstance(a, LieValued)
        b_lie = isinstance(b, LieValued)
        if not a_lie and not b_lie:
            return a * b, paired
        if not a_lie:
            return LieValued(b.lie, [a * c for c in b.components]), paired
        if not b_lie:
            return LieValued(a.lie, [c * b for c in a.components]), paired
        if in_tr and paired == 0:
            if a.lie is not b.lie:
                raise _error(_MIXED_LIE, span)
            return trace_pair(a, b), 1
        raise _error("product of two lie-algebra valued expressions; use Tr(...) "
                     "or the bracket [.,.]", span)

    def eval_factor(self, f: Factor, env):
        """Value of one factor of a distributed term, from its memo when the
        factor's variables had these values before."""
        key = tuple(env[v] for v in f.vars)
        value = f.memo.get(key)
        if value is None:
            value = f.memo[key] = self._eval_factor(f, env)
        return value

    def _eval_factor(self, f: Factor, env):
        kind = f.kind
        if kind == "bracket":
            a = self.statement_value(f.parts[0], env)
            bb = self.statement_value(f.parts[1], env)
            if not isinstance(a, LieValued) or not isinstance(bb, LieValued):
                raise _error("the bracket needs lie-algebra valued arguments", f.span)
            if a.lie is not bb.lie:
                raise _error(_MIXED_LIE, f.span)
            return lie_bracket(a, bb)
        if kind == "d":
            v = self.statement_value(f.parts, env)
            if isinstance(v, LieValued):
                return LieValued(v.lie, [de_rham(c) for c in v.components])
            return de_rham(v)
        if kind == "tr":
            return self.statement_value(f.parts, env, in_tr=True)
        if kind == "theta_basis":
            idx = tuple(self.index_value(a, env) for a in f.parts)
            ths = [self.b.theta[a] for a in self.b.base_indices]
            return theta_basis(ths, idx)
        return self.eval_ref(f, env)

    def index_value(self, atom, env) -> int:
        # statement_value binds every variable of a term before evaluating it
        a = atom[1] if atom[0] == "int" else env[atom[1]]
        if a not in self.b.base_indices:
            raise _error(f"index {a} outside the base range", atom[2])
        return a

    def resolve(self, ref: Factor, env):
        """Resolve an x, theta or fiber reference to (lie, [(sign, generator)]).
        lie is the algebra when the reference is Lie-valued, with one pair per
        component; otherwise it is None with a single pair.  Sign 0 marks a
        vanishing antisymmetric component."""
        (name, args, lie_sel), span = ref.parts, ref.span
        b = self.b
        if name in ("x", "theta"):
            if len(args) != 1 or lie_sel is not None:
                raise _error(f"{name} takes one base index", span)
            a = self.index_value(args[0], env)
            return None, [(1, b.x[a] if name == "x" else b.theta[a])]
        fam = b.fibers.get(name)
        if fam is None:
            raise _error(f"undeclared symbol {name!r}", span)
        if len(args) != fam.slots:
            raise _error(f"{name!r} takes {fam.slots} base indices, got {len(args)}", span)
        idx = tuple(self.index_value(a, env) for a in args)
        if lie_sel is None:
            if fam.lie is None:
                return None, [fam.resolve(idx, None)]
            return fam.lie, [fam.resolve(idx, li) for li in range(fam.lie.dim)]
        if fam.lie is None:
            raise _error(f"{name!r} carries no lie algebra", span)
        if not 1 <= lie_sel <= fam.lie.dim:
            raise _error(f"lie component {lie_sel} outside 1..{fam.lie.dim}", span)
        return None, [fam.resolve(idx, lie_sel - 1)]

    def eval_ref(self, ref: Factor, env):
        (name, args, _), span = ref.parts, ref.span
        b = self.b
        if name in ("eta", "inveta", "eps"):
            if b.tensors is None:
                raise _error(f"{name} requires a metric declaration", span)
            idx = [self.index_value(a, env) for a in args]
            if name == "eps":
                if len(idx) != b.n:
                    raise _error(f"eps takes {b.n} indices, got {len(idx)}", span)
                return Poly.scalar(b.tensors.eps(idx))
            if len(idx) != 2:
                raise _error(f"{name} takes two indices", span)
            fn = b.tensors.eta if name == "eta" else b.tensors.inveta
            return Poly.scalar(fn(idx[0], idx[1]))
        lie, comps = self.resolve(ref, env)
        values = [Poly.zero() if sign == 0 else Poly.gen(g) if sign == 1 else -Poly.gen(g)
                  for sign, g in comps]
        return values[0] if lie is None else LieValued(lie, values)


# levels of (...), unary minus, [.,.], d(...) and Tr(...) an expression may nest;
# reading a level costs 3 Python frames (4 for d and Tr), evaluating one costs 4
# for [.,.], d and Tr and none for the others, so a model at the limit still
# loads from 200 frames deep
MAX_NESTING = 100


class ModelParser:
    """Statement and expression parser driving a ModelBuilder.  The parser
    checks syntax, names, index ranges and lie-valuedness; a statement then
    hands its rules to the builder (_given), which refuses repeats,
    ill-typed Q-rules and a chi of the wrong degree.  Each error is a
    diagnostic at its statement."""

    LBP = {"+": 10, "-": 10, "*": 20, "/": 20}

    def __init__(self, text: str, source: str, name: str):
        self.diags: List[Diagnostic] = []
        self.toks = tokenize(text, source, self.diags)
        self.pos = 0
        self.depth = 0          # expression nesting, bounded by MAX_NESTING
        self.name = name
        self._named = False     # a model statement was read
        self.builder: Optional[ModelBuilder] = None
        self.evaluator: Optional[Evaluator] = None
        self._weak: Optional[bool] = None

    # token cursor ---------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, word=None) -> Token:
        """The next token, which must be of the kind and, given a word, be it."""
        t = self.next()
        if t.kind != kind or word is not None and t.value != word:
            raise _error(f"expected {word or kind!r}, found {t.value!r}", t.span)
        return t

    def expect_int(self) -> int:
        neg = self.peek().kind == "-"
        if neg:
            self.next()
        value = self.expect("int").value
        return -value if neg else value

    def expect_rational(self) -> Scalar:
        v = self.expect_int()
        if self.peek().kind == "/":
            self.next()
            span = self.peek().span
            denom = self.expect_int()
            if denom == 0:
                raise _error("division by zero", span)
            v = qdiv(v, denom)
        return v

    def comma_list(self, item, close: str) -> list:
        """Parse `item, item, ...` (possibly empty) and the closing token."""
        out = []
        if self.peek().kind != close:
            out.append(item())
            while self.peek().kind == ",":
                self.next()
                out.append(item())
        self.expect(close)
        return out

    # expressions ----------------------------------------------------------

    def expr(self, rbp: int = 0):
        """Pratt parser for the expression sublanguage, distributing as it
        reads: (terms, span), the terms (coefficient, factor list) pairs and
        the span that of the last operator read at this level, or else of
        the first token.  A chain of operators is read in this loop."""
        terms, span = self.nud(self.next())
        while self.LBP.get(self.peek().kind, 0) > rbp:
            t = self.next()
            right, _ = self.expr(self.LBP[t.kind])
            if t.kind == "+":
                terms += right
            elif t.kind == "-":
                terms += [(-c, fs) for c, fs in right]
            elif t.kind == "*":
                terms = [(c1 * c2, f1 + f2) for c1, f1 in terms for c2, f2 in right]
            else:   # a denominator must expand to constants; their sum is the divisor
                if any(fs for _, fs in right):
                    raise _error("division is only defined by numeric constants", t.span)
                divisor = sum(c for c, _ in right)
                if divisor == 0:
                    raise _error("division by zero", t.span)
                terms = [(qdiv(c, divisor), fs) for c, fs in terms]
            span = t.span
        return terms, span

    def nested(self, opener: Token, rbp: int = 0):
        """An expression one nesting level below the opener token."""
        if self.depth == MAX_NESTING:
            raise _error(f"expression nested more than {MAX_NESTING} levels deep",
                         opener.span)
        self.depth += 1
        try:
            return self.expr(rbp)
        finally:
            self.depth -= 1

    def nud(self, t: Token):
        if t.kind == "int":
            return [(t.value, [])], t.span
        if t.kind == "(":
            e = self.nested(t)
            self.expect(")")
            return e
        if t.kind == "-":
            terms, _ = self.nested(t, 25)
            return [(-c, fs) for c, fs in terms], t.span
        if t.kind == "[":
            left = self.nested(t)
            self.expect(",")
            right = self.nested(t)
            closer = self.next()
            if closer.kind != "]":
                raise _error("the bracket takes exactly two arguments", closer.span)
            return [(1, [Factor("bracket", (left, right), t.span)])], t.span
        if t.kind == "name":
            return [(1, [self.name_atom(t)])], t.span
        raise _error(f"unexpected token {t.value!r}", t.span)

    def name_atom(self, t: Token) -> Factor:
        name = t.value
        if name in ("d", "Tr") and self.peek().kind == "(":
            self.next()
            e = self.nested(t)
            self.expect(")")
            return Factor("d" if name == "d" else "tr", e, t.span)
        if name == "theta" and self.peek().kind == "(":
            self.next()
            k = self.expect("int").value
            self.expect(";")
            idx = self.comma_list(self.index_atom, ")")
            if len(idx) != k:
                raise _error(f"theta({k}; ...) takes {k} indices, got {len(idx)}", t.span)
            return Factor("theta_basis", tuple(idx), t.span)
        return self.reference(t)

    def reference(self, name_tok: Token) -> Factor:
        """The `[i, ...]{k}` tail, both parts optional, of a name."""
        args = ()
        lie_sel = None
        if self.peek().kind == "[":
            self.next()
            args = tuple(self.comma_list(self.index_atom, "]"))
        if self.peek().kind == "{":
            self.next()
            lie_sel = self.expect("int").value
            self.expect("}")
        return Factor("ref", (name_tok.value, args, lie_sel), name_tok.span)

    def index_atom(self):
        t = self.next()
        if t.kind == "int":
            return ("int", t.value, t.span)
        if t.kind == "name":
            return ("var", t.value, t.span)
        raise _error("expected an index", t.span)

    # statements -----------------------------------------------------------

    def need_builder(self, span) -> ModelBuilder:
        if self.builder is None:
            raise _error("the base dimension must be declared first", span,
                         hint="start with: base dim = <n>;")
        return self.builder

    def parse(self) -> Model:
        """Build the model; a DslError raised here carries self.diags."""
        while self.peek().kind != "eof":
            start = self.pos
            try:
                self.statement()
            except DslError as e:
                self.diags.extend(e.diagnostics)
                self.pos = start
                self.skip_statement()
        if any(d.severity == "error" for d in self.diags):
            raise DslError(self.diags)
        b = self.builder
        if b is None:
            self.diags.append(Diagnostic(
                "error", "empty model: no base dimension declared", None))
            raise DslError(self.diags)
        b.weak(self._weak is True)
        b.name = self.name
        return b.build()

    def skip_statement(self):
        """Skip the statement that begins at the current token: past its
        closing ';' or, for a lie block, past the '}' that ends the block.  The
        ';' of theta(k; ...), which follows 'theta ( int', ends nothing; any
        other ';' does, so an unclosed '(' hides no later statement."""
        block = self.peek().kind == "name" and self.peek().value == "lie"
        depth = 0
        while True:
            t = self.peek()
            if t.kind == "eof":
                return
            self.next()
            if t.kind == "{":
                depth += 1
            elif t.kind == "}":
                depth -= 1
                if depth < 0 or (block and depth == 0):
                    return
            elif t.kind == ";" and depth == 0:
                head = [(x.kind, x.value) for x in self.toks[max(self.pos - 4, 0):self.pos - 2]]
                if head != [("name", "theta"), ("(", "(")] or self.toks[self.pos - 2].kind != "int":
                    return

    def statement(self):
        t = self.peek()
        if t.kind != "name":
            raise _error(f"expected a declaration, found {t.value!r}", t.span)
        stmt = self.STATEMENTS.get(t.value)
        if stmt is None:
            raise _error(f"unknown declaration {t.value!r}", t.span)
        stmt(self)

    def stmt_model(self):
        t = self.next()
        name = self.expect("name").value
        self.expect(";")
        if self._named:
            raise _error("model name declared twice", t.span)
        self._named = True
        self.name = name

    def stmt_base(self):
        t = self.next()
        self.expect("name", "dim")
        self.expect("=")
        n = self.expect_int()
        self.expect(";")
        if self.builder is not None:
            raise _error("base dimension declared twice", t.span)
        self.builder = _given(t.span, ModelBuilder, self.name, n)
        self.evaluator = Evaluator(self.builder)

    def parse_diag(self) -> List[Scalar]:
        self.expect("name", "diag")
        self.expect("(")
        return self.comma_list(self.expect_rational, ")")

    def stmt_metric(self):
        t = self.next()
        b = self.need_builder(t.span)
        self.expect("=")
        vals = self.parse_diag()
        self.expect(";")
        _given(t.span, b.metric, vals)

    def stmt_lie(self):
        t = self.next()
        b = self.need_builder(t.span)
        name_tok = self.expect("name")
        self.expect("{")
        dim = None
        entries: List[Tuple[int, int, int, Scalar, Span]] = []
        kappa_diag: Optional[List[Scalar]] = None
        antisymmetrize = False
        while self.peek().kind != "}":
            st = self.expect("name")
            if st.value == "dim":
                self.expect("=")
                span = self.peek().span
                value = self.expect_int()
                if value < 1:
                    raise _error("lie dimension must be at least 1", span)
                self.expect(";")
                if dim is not None:
                    raise _error("lie dimension declared twice", st.span)
                dim = value
            elif st.value == "f":
                idx = []
                for _ in range(3):
                    self.expect("[")
                    idx.append(self.expect_int())
                    self.expect("]")
                self.expect("=")
                val = self.expect_rational()
                self.expect(";")
                entries.append((idx[0], idx[1], idx[2], val, st.span))
            elif st.value == "kappa":
                self.expect("=")
                value = self.parse_diag()
                self.expect(";")
                if kappa_diag is not None:
                    raise _error("kappa declared twice", st.span)
                kappa_diag = value
            elif st.value == "antisymmetrize":
                antisymmetrize = True
                self.expect(";")
            else:
                raise _error(f"unknown lie-block entry {st.value!r}", st.span)
        self.expect("}")
        if dim is None:
            raise _error(f"lie {name_tok.value!r} does not declare its dimension",
                         name_tok.span)
        # each entry fixes its constant, and under antisymmetrize the five
        # permuted ones, to one value: a repeat must keep it
        consts: Dict[Tuple[int, int, int], Scalar] = {}
        for a, bb, c, val, span in entries:
            for k in (a, bb, c):
                if not 1 <= k <= dim:
                    raise _error(f"lie index {k} outside 1..{dim}", span)
            base = (a - 1, bb - 1, c - 1)
            perms = [(0, 1, 2)]
            if antisymmetrize:
                if len(set(base)) != 3:
                    raise _error("antisymmetrize needs distinct indices", span)
                perms = itertools.permutations(range(3))
            for perm in perms:
                v = sort_sign(perm)[0] * val
                if consts.setdefault(tuple(base[k] for k in perm), v) != v:
                    raise _error("conflicting structure constants", span)
        f = [[[consts.get((i, j, k), 0) for k in range(dim)] for j in range(dim)]
             for i in range(dim)]
        if kappa_diag is None:
            kappa_diag = [1] * dim
        if len(kappa_diag) != dim:
            raise _error("kappa diagonal length does not match dim", name_tok.span)
        kappa = [[kappa_diag[i] if i == j else 0 for j in range(dim)]
                 for i in range(dim)]
        try:
            data = LieAlgebraData(name_tok.value, dim, f, kappa)
            b.lie(data)
        except GradedAlgebraError as e:
            hint = None
            if "antisymmetric" in str(e) and not antisymmetrize:
                hint = "add 'antisymmetrize;' to complete the given entries"
            raise _error(str(e), name_tok.span, hint)

    def stmt_coord(self):
        t = self.next()
        b = self.need_builder(t.span)
        name_tok = self.expect("name")
        name = name_tok.value
        if name in RESERVED:
            raise _error(f"{name!r} is reserved and cannot name a coordinate",
                         name_tok.span)
        slots = []
        if self.peek().kind == "[":
            self.next()
            slots = self.comma_list(lambda: self.expect("name").value, "]")
            if len(set(slots)) != len(slots):
                raise _error("index slots must use distinct variables", name_tok.span)
        self.expect(":")
        self.expect("name", "gh")
        self.expect("=")
        gh = self.expect_int()
        antisym = False
        lie = None
        while self.peek().kind == "name":
            attr = self.next()
            if attr.value == "antisym":
                antisym = True
            elif attr.value == "in":
                if lie is not None:
                    raise _error(f"lie algebra of {name!r} declared twice", attr.span)
                lname = self.expect("name")
                lie = b.lies.get(lname.value)
                if lie is None:
                    raise _error(f"undeclared lie algebra {lname.value!r}", lname.span)
            else:
                raise _error(f"unknown coordinate attribute {attr.value!r}", attr.span)
        self.expect(";")
        _given(name_tok.span, b.fiber, name, gh, slots=len(slots), antisym=antisym, lie=lie)

    def stmt_q(self):
        t = self.next()
        b = self.need_builder(t.span)
        target = self.reference(self.expect("name"))
        self.expect("=")
        rhs = self.expr()
        self.expect(";")
        ev = self.evaluator
        (name, args, lie_sel), span = target.parts, target.span
        free = [a[1] for a in args if a[0] == "var"]
        if len(set(free)) != len(free):
            raise _error("left-hand index variables must be distinct", span)
        rules = []
        # the first variable varies slowest
        for values in itertools.product(b.base_indices, repeat=len(free)):
            env = dict(zip(free, values))
            lie, comps = ev.resolve(target, env)
            value = ev.statement_value(rhs, env)
            if name in ("x", "theta"):
                if isinstance(value, LieValued):
                    raise _error("base coordinates take scalar Q-rules", span)
                g = comps[0][1]
                if value == base_q(b.x, b.theta)[g]:
                    continue
                self.diags.append(Diagnostic(
                    "warning", f"Q-rule for {name}[{g.base_index[0]}] overrides the canonical "
                    f"base differential", span))
                rules.append((g, value))
                continue
            if lie is None:
                if isinstance(value, LieValued):
                    raise _error("a single lie component takes a scalar rule"
                                 if lie_sel is not None
                                 else f"{name!r} carries no lie algebra", span)
                values = [value]
            else:
                if isinstance(value, Poly) and value.is_zero():
                    value = LieValued(lie, [Poly.zero()] * lie.dim)
                if not isinstance(value, LieValued) or value.lie is not lie:
                    raise _error(f"Q-rule for {name!r} must be {lie.name}-valued", span)
                values = value.components
            for (sign, g), v in zip(comps, values):
                if sign != 0:
                    rules.append((g, v if sign == 1 else -v))
                elif not v.is_zero():
                    raise _error("nonzero Q-rule on a vanishing antisymmetric component",
                                 span)
        _given(span, b.q_rules, rules)

    def stmt_chi(self):
        t = self.next()
        b = self.need_builder(t.span)
        self.expect("=")
        rhs = self.expr()
        self.expect(";")
        value = self.evaluator.statement_value(rhs, {})
        if isinstance(value, LieValued):
            raise _error("chi must be a scalar expression; wrap lie factors "
                         "in Tr(...)", t.span)
        _given(t.span, b.chi, value)

    def stmt_weak(self):
        t = self.next()
        self.expect("=")
        v = self.expect("name")
        if v.value not in ("true", "false"):
            raise _error("weak takes true or false", v.span)
        self.expect(";")
        if self._weak is not None:
            raise _error("weak declared twice", t.span)
        self._weak = v.value == "true"

    # statement keyword -> the method that parses the statement
    STATEMENTS = {"base": stmt_base, "metric": stmt_metric, "lie": stmt_lie,
                  "coord": stmt_coord, "Q": stmt_q, "chi": stmt_chi, "weak": stmt_weak,
                  "model": stmt_model}


def parse_with_diagnostics(text: str, name: str = "model",
                           source: str = "<string>"):
    """Returns (model_or_None, diagnostics)."""
    p = ModelParser(text, source, name)
    try:
        return p.parse(), p.diags
    except DslError:
        return None, p.diags


def parse_model(text: str, name: str = "model", source: str = "<string>") -> Model:
    model, diags = parse_with_diagnostics(text, name, source)
    if model is None:
        raise DslError(diags)
    return model


def load_model(path) -> Model:
    """Parse a model file.  A file that cannot be read, or is not UTF-8
    text, gives a DslError whose diagnostic names only the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise _error(f"not UTF-8 text: byte {e.object[e.start]:#04x} at offset {e.start}",
                     Span(str(path), None, None))
    except OSError as e:
        raise _error(f"cannot read the model file: {e.strerror}",
                     Span(str(path), None, None))
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_model(text, name=stem, source=str(path))


def _models():
    """The directory of the packaged model files."""
    from importlib import resources

    return resources.files(__package__) / "models"


def load_builtin(name: str) -> Model:
    """Load one of the packaged model files by stem name."""
    text = (_models() / f"{name}.gpde").read_text(encoding="utf-8")
    return parse_model(text, name=name, source=f"models/{name}.gpde")


def builtin_names() -> List[str]:
    return sorted(e.name[:-5] for e in _models().iterdir() if e.name.endswith(".gpde"))


# canonical printing ---------------------------------------------------------


def model_to_source(m: Model) -> str:
    """Canonical text for a model; parsing it back gives an equal model."""
    from .printing import poly_dsl

    if m.base_indices != tuple(range(m.n)):
        raise GradedAlgebraError(
            "only models over the full base have a surface-syntax form")
    lines = [f"model {m.name};" if m.name.isidentifier() else "model m;",
             f"base dim = {m.n};"]
    if m.tensors is not None:
        vals = ", ".join(str(v) for v in m.tensors.diag)
        lines.append(f"metric = diag({vals});")
    for lie in m.lies.values():
        lines.append(f"lie {lie.name} {{")
        lines.append(f"  dim = {lie.dim};")
        for a in range(lie.dim):
            for bb in range(lie.dim):
                for c in range(lie.dim):
                    if lie.f[a][bb][c]:
                        lines.append(
                            f"  f[{a + 1}][{bb + 1}][{c + 1}] = {lie.f[a][bb][c]};")
        kd = ", ".join(str(lie.kappa[i][i]) for i in range(lie.dim))
        lines.append(f"  kappa = diag({kd});")
        lines.append("}")
    for fam in m.fibers.values():
        head = fam.name
        if fam.slots:
            # a to h, then a8, a9, ...: one distinct name per slot
            head += "[" + ", ".join("abcdefgh"[k] if k < 8 else f"a{k}"
                                    for k in range(fam.slots)) + "]"
        attrs = f"gh = {fam.gh}"
        if fam.antisym:
            attrs += " antisym"
        if fam.lie is not None:
            attrs += f" in {fam.lie.name}"
        lines.append(f"coord {head} : {attrs};")
    for fam in m.fibers.values():
        for g in fam.coords():
            value = m.q.coefficient(g)
            if value.is_zero():
                continue
            head = g.name
            if g.base_index:
                head += "[" + ", ".join(str(i) for i in g.base_index) + "]"
            if g.lie_index is not None and g.lie_index >= 0:
                head += f"{{{g.lie_index + 1}}}"
            lines.append(f"Q {head} = {poly_dsl(value)};")
    if m.chi is not None:
        lines.append(f"chi = {poly_dsl(m.chi)};")
    if m.weak:
        lines.append("weak = true;")
    return "\n".join(lines) + "\n"
