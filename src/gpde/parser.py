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
A sum runs only over the index values where every eta, inveta, eps and
theta(k; ...) factor of its term is nonzero.  Before it sums anything, a
statement plans each term once (Evaluator.plan): every name in it is
checked, with every other error that no index value can change, even when
its sum is empty.
A comment runs from `#` or `//` to the end of the line.  An int literal is
ASCII digits, a name starts with a letter or `_` and goes on with Unicode word
characters, and any other character is one diagnostic.  A token is a
(kind, value, offset) tuple; a diagnostic carries the offset of its token
until ModelParser.parse turns it into a Span of line and column.
"""

from __future__ import annotations

import bisect
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
    span: Optional[Span]   # inside the reader, the offset of a token in the text
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


def _error(message: str, at, hint: Optional[str] = None) -> DslError:
    """The DslError carrying one error diagnostic at an offset (or a Span);
    callers raise it."""
    return DslError([Diagnostic("error", message, at, hint)])


def _given(at: int, rule, *args, **kwargs):
    """rule(*args, **kwargs), a ModelBuilder call; the rule it refuses is
    an error diagnostic at the offset."""
    try:
        return rule(*args, **kwargs)
    except GradedAlgebraError as e:
        raise _error(str(e), at) from None


# blanks, newlines and comments, then an int literal, a word, another character or the end
_TOKEN = re.compile(r"((?:[ \t\r\n]+|(?:#|//)[^\n]*)*)(?:([0-9]+)|(\w+)|(.)|\Z)", re.S)


def tokenize(text: str, diags: List[Diagnostic]) -> List[tuple]:
    """Tokens of text, (kind, value, offset), and an eof token; each
    unexpected character goes to diags at its offset."""
    toks = []
    append = toks.append
    start = 0
    while start is not None:   # scanned again only after a word that starts badly
        i, start = start, None
        for blank, number, word, other in _TOKEN.findall(text, i):
            i += len(blank)
            if word:
                if not (word[0].isalpha() or word[0] == "_"):
                    diags.append(Diagnostic("error", f"unexpected character {word[0]!r}", i))
                    start = i + 1
                    break
                append(("name", word, i))
                i += len(word)
            elif other:
                if other in PUNCT:
                    append((other, other, i))
                else:
                    diags.append(Diagnostic("error", f"unexpected character {other!r}", i))
                i += 1
            elif number:
                append(("int", int(number), i))
                i += len(number)
    # the value is what a diagnostic prints as the found token
    append(("eof", "end of file", i))
    return toks


# expressions, distributed as they are read ----------------------------------


class Factor:
    """One factor of a distributed term, built once as it is read.  parts
    are, by kind: "ref" the name, index atoms and lie selector; "theta_basis"
    the index atoms; "bracket" both arguments; "d" and "tr" the argument itself.
    An argument is an expression already distributed, (terms, offset), and
    an index atom is ("int" or "var", value, offset).  vars names each
    occurrence of an index variable in the factor, arguments included; memo
    holds its values during its statement, keyed by theirs.  Once
    Evaluator.factor_lie has checked the factor, lie is the lie algebra of
    its values (None for a scalar) and args the plans of its arguments."""

    __slots__ = ("kind", "parts", "at", "vars", "memo", "lie", "args")

    def __init__(self, kind: str, parts: tuple, at: int):
        self.kind, self.parts, self.at, self.memo, self.args = kind, parts, at, {}, None
        if kind in ("ref", "theta_basis"):
            atoms = parts[1] if kind == "ref" else parts
            self.vars = tuple(a[1] for a in atoms if a[0] == "var")
        else:   # each factor of an argument once, however many terms hold it
            args = parts if kind == "bracket" else (parts,)
            inner = dict.fromkeys(f for terms, _ in args for _, fs in terms for f in fs)
            self.vars = tuple(v for f in inner for v in f.vars)


_MIXED_LIE = "mixing values of different lie algebras"
# the background tensors, each with whether its nonzero entries have equal
# indices (eta, inveta) or distinct ones (eps, and theta(k; ...))
_SPARSE = {"eta": True, "inveta": True, "eps": False}


def _mul(a, b):
    """a*b.  Two lie values meet only as the pair of a Tr term, the one
    product of them that a plan admits."""
    if isinstance(a, LieValued):
        if isinstance(b, LieValued):
            return trace_pair(a, b)
        return LieValued(a.lie, [c * b for c in a.components])
    if isinstance(b, LieValued):
        return LieValued(b.lie, [a * c for c in b.components])
    return a * b


class Evaluator:
    """Turns distributed expressions into Poly / LieValued values over a builder.

    A statement first plans its expressions (plan): each term is checked
    once, in the order evaluation reads it, for every error that does not
    depend on index values.  Evaluation then raises only the two that do:
    a nonzero scalar added to a lie value, and (in ModelParser.stmt_q) a
    nonzero rule on a vanishing antisymmetric component.

    During one statement, over every value of its left-hand indices, each
    factor is evaluated once per assignment of the index variables that
    occur in it; later uses read the memo the factor carries, which goes
    with the statement's expression."""

    def __init__(self, builder: ModelBuilder):
        self.b = builder

    # the plan: every error no index value can change ------------------------

    def plan(self, expr, bound=None, in_tr=False):
        """The plan of a distributed expression, (terms, offset, lie): each
        term (coefficient, factors, dummies, sparse, zero) with the variables
        it sums over, the (equal, index atoms) of its eta, inveta, eps and
        theta(k; ...) factors, and the zero of its values when they are lie
        values (else None); lie is the lie algebra of the sum's values, None
        for scalars.  bound names the variables the left-hand side binds;
        None binds every variable, as the statement does for a bracket,
        d(...) or Tr(...) argument."""
        terms, at = expr
        planned, lie = [], None
        for coeff, factors in terms:
            dummies = []
            if bound is not None:
                names = [v for f in factors for v in f.vars]
                for v in sorted(set(names)):
                    if v in bound:
                        continue
                    if names.count(v) == 1:
                        raise _error(f"index variable {v!r} appears once and is not "
                                     f"bound by the left-hand side", at,
                                     hint="repeated variables are summed")
                    dummies.append(v)
            term_lie = self.term_lie(factors, in_tr)
            if term_lie is not None:
                if lie is None:
                    lie = term_lie
                elif lie is not term_lie:
                    raise _error(_MIXED_LIE, at)
            sparse = tuple((False, f.parts) if f.kind == "theta_basis" else
                           (_SPARSE[f.parts[0]], f.parts[1]) for f in factors
                           if f.kind == "theta_basis" or f.kind == "ref" and f.parts[0] in _SPARSE)
            zero = None if term_lie is None else LieValued(term_lie, [Poly.zero()] * term_lie.dim)
            planned.append((coeff, factors, tuple(dummies), sparse, zero))
        return planned, at, lie

    def term_lie(self, factors, in_tr):
        """The lie algebra of a term's values, None for a scalar: at most one
        lie factor, or inside Tr exactly one pair of them."""
        lie, paired = None, False
        for f in factors:
            f_lie = self.factor_lie(f)
            if f_lie is None:
                continue
            if lie is None:
                lie = f_lie
            elif in_tr and not paired:
                if lie is not f_lie:
                    raise _error(_MIXED_LIE, f.at)
                lie, paired = None, True
            else:
                raise _error("product of two lie-algebra valued expressions; use Tr(...) "
                             "or the bracket [.,.]", f.at)
        if in_tr and (not paired or lie is not None):
            raise _error("Tr needs exactly two lie-algebra valued factors in "
                         "each term", factors[-1].at if factors else None)
        return lie

    def factor_lie(self, f: Factor):
        """The lie algebra of a factor's values, None for a scalar; its
        arguments are planned on the first call."""
        if f.args is None:
            kind = f.kind
            lie, args = None, ()
            if kind in ("bracket", "d", "tr"):
                exprs = f.parts if kind == "bracket" else (f.parts,)
                args = tuple(self.plan(e, in_tr=kind == "tr") for e in exprs)
                lie = args[0][2]
                if kind == "bracket":
                    if lie is None or args[1][2] is None:
                        raise _error("the bracket needs lie-algebra valued arguments", f.at)
                    if lie is not args[1][2]:
                        raise _error(_MIXED_LIE, f.at)
                elif kind == "tr":
                    lie = None
            elif kind == "theta_basis":
                self.check_indices(f.parts)
            else:
                lie = self.ref_lie(f)
            f.lie, f.args = lie, args
        return f.lie

    def ref_lie(self, ref: Factor):
        name, args, _ = ref.parts
        b = self.b
        if name not in _SPARSE:
            return self.coordinate_lie(ref)
        if b.tensors is None:
            raise _error(f"{name} requires a metric declaration", ref.at)
        self.check_indices(args)
        if name == "eps":
            if len(args) != b.n:
                raise _error(f"eps takes {b.n} indices, got {len(args)}", ref.at)
        elif len(args) != 2:
            raise _error(f"{name} takes two indices", ref.at)
        return None

    def coordinate_lie(self, ref: Factor):
        """The lie algebra of an x, theta or fiber reference's values, None
        for a scalar; a Q target is checked here too."""
        (name, args, lie_sel), at = ref.parts, ref.at
        if name in ("x", "theta"):
            if len(args) != 1 or lie_sel is not None:
                raise _error(f"{name} takes one base index", at)
            self.check_indices(args)
            return None
        fam = self.b.fibers.get(name)
        if fam is None:
            raise _error(f"undeclared symbol {name!r}", at)
        if len(args) != fam.slots:
            raise _error(f"{name!r} takes {fam.slots} base indices, got {len(args)}", at)
        self.check_indices(args)
        if lie_sel is None:
            return fam.lie
        if fam.lie is None:
            raise _error(f"{name!r} carries no lie algebra", at)
        if not 1 <= lie_sel <= fam.lie.dim:
            raise _error(f"lie component {lie_sel} outside 1..{fam.lie.dim}", at)
        return None

    def check_indices(self, atoms):
        # a variable takes base values only, so only a literal can be outside
        for kind, a, at in atoms:
            if kind == "int" and a not in self.b.base_indices:
                raise _error(f"index {a} outside the base range", at)

    # evaluation -------------------------------------------------------------

    def statement_value(self, plan, env: Dict[str, int]):
        """The value of a planned expression, with Einstein summation over
        each term's dummies; env binds every other variable."""
        terms, at, _ = plan
        base = self.b.base_indices
        total = None
        for coeff, factors, dummies, sparse, zero in terms:
            if dummies and not base:
                continue   # a sum over the empty base
            # a lie term adds a zero of its type, however many of its
            # assignments are skipped as zero: that makes a zero scalar sum
            # lie-valued, and a nonzero one refuses it
            if zero is not None and not isinstance(total, LieValued):
                total = self._add(total, zero, at)
            scope = dict(env) if dummies else env
            for values in self.assignments(dummies, sparse, env) if dummies or sparse else ((),):
                scope.update(zip(dummies, values))
                total = self._add(total, self.eval_term(coeff, factors, scope), at)
        return total if total is not None else Poly.zero()

    def assignments(self, dummies, sparse, env) -> List[tuple]:
        """The values of dummies, the first varying slowest as in
        itertools.product, at which none of the sparse factors vanishes: an
        equal pair binds an index to the value of the other, and a distinct
        one rules that value out.  env gives every other variable."""
        pos = {v: k for k, v in enumerate(dummies)}
        # rules[k]: (i, value, equal), tested once dummy k is bound against
        # dummy i < k, or against the value when i is -1
        rules = [[] for _ in dummies]
        for equal, atoms in sparse:
            slots = sorted((pos[a], None) if a in pos else (-1, a if kind == "int" else env[a])
                           for kind, a, _ in atoms)
            for (i, x), (j, y) in [slots] if equal else itertools.combinations(slots, 2):
                if j < 0:
                    if (x == y) != equal:
                        return []
                elif i != j:
                    rules[j].append((i, x, equal))
                elif not equal:
                    return []
        out = [()]
        for rule in rules:
            grown = []
            for p in out:
                fixed = {x if i < 0 else p[i] for i, x, equal in rule if equal}
                if len(fixed) > 1:
                    continue
                avoid = {x if i < 0 else p[i] for i, x, equal in rule if not equal}
                grown += [p + (v,) for v in fixed or self.b.base_indices if v not in avoid]
            out = grown
        return out

    def _add(self, a, b, at):
        if a is None:
            return b
        if isinstance(a, LieValued) != isinstance(b, LieValued):
            if isinstance(a, Poly) and a.is_zero():
                return b
            if isinstance(b, Poly) and b.is_zero():
                return a
            raise _error("cannot add a scalar and a lie-algebra valued expression", at)
        if b.is_zero():
            return a
        if a.is_zero():
            return b
        return a + b

    def eval_term(self, coeff, factors, env):
        # a unit coefficient is not multiplied in: the first factor starts the product
        value = None if factors and coeff == 1 else Poly.scalar(coeff)
        for f in factors:
            v = self.eval_factor(f, env)
            value = v if value is None else _mul(value, v)
        return value

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
            return lie_bracket(self.statement_value(f.args[0], env),
                               self.statement_value(f.args[1], env))
        if kind == "d":
            v = self.statement_value(f.args[0], env)
            if isinstance(v, LieValued):
                return LieValued(v.lie, [de_rham(c) for c in v.components])
            return de_rham(v)
        if kind == "tr":
            return self.statement_value(f.args[0], env)
        if kind == "theta_basis":
            ths = [self.b.theta[a] for a in self.b.base_indices]
            return theta_basis(ths, [a if k == "int" else env[a] for k, a, _ in f.parts])
        return self.eval_ref(f, env)

    def resolve(self, ref: Factor, env):
        """Resolve an x, theta or fiber reference to (lie, [(sign, generator)]).
        lie is the algebra when the reference is Lie-valued, with one pair per
        component; otherwise it is None with a single pair.  Sign 0 marks a
        vanishing antisymmetric component."""
        name, args, lie_sel = ref.parts
        b = self.b
        idx = tuple(a if kind == "int" else env[a] for kind, a, _ in args)
        if name in ("x", "theta"):
            return None, [(1, (b.x if name == "x" else b.theta)[idx[0]])]
        fam = b.fibers[name]
        if fam.lie is None or lie_sel is not None:
            return None, [fam.resolve(idx, None if lie_sel is None else lie_sel - 1)]
        # the index tuple is sorted once for every component
        sign, g = fam.resolve(idx, 0)
        if not sign:
            return fam.lie, [(0, None)] * fam.lie.dim
        return fam.lie, [(sign, fam.gen(g.base_index, li)) for li in range(fam.lie.dim)]

    def eval_ref(self, ref: Factor, env):
        name, args, _ = ref.parts
        if name in _SPARSE:
            idx = [a if kind == "int" else env[a] for kind, a, _ in args]
            t = self.b.tensors
            if name == "eps":
                return Poly.scalar(t.eps(idx))
            return Poly.scalar((t.eta if name == "eta" else t.inveta)(*idx))
        lie, comps = self.resolve(ref, env)
        values = [Poly.zero() if sign == 0 else Poly.gen(g) if sign == 1 else -Poly.gen(g)
                  for sign, g in comps]
        return values[0] if lie is None else LieValued(lie, values)


# levels of (...), unary minus, [.,.], d(...) and Tr(...) an expression may nest;
# reading a level costs 3 Python frames (4 for d and Tr), planning one costs 3
# and evaluating one 4 for [.,.], d and Tr and none for the others, so a model
# at the limit still loads from 200 frames deep
MAX_NESTING = 100


class ModelParser:
    """Statement and expression parser driving a ModelBuilder.  The parser
    checks syntax, names, index ranges and lie-valuedness; a statement then
    hands its rules to the builder (_given), which refuses repeats,
    ill-typed Q-rules and a chi of the wrong degree.  Each error is a
    diagnostic at its statement."""

    LBP = {"+": 10, "-": 10, "*": 20, "/": 20}

    def __init__(self, text: str, source: str, name: str):
        self.text, self.source = text, source
        self.diags: List[Diagnostic] = []
        self.toks = tokenize(text, self.diags)
        self.pos = 0
        self.depth = 0          # expression nesting, bounded by MAX_NESTING
        self.name = name
        self._named = False     # a model statement was read
        self.builder: Optional[ModelBuilder] = None
        self.evaluator: Optional[Evaluator] = None
        self._weak: Optional[bool] = None

    # token cursor: a token is (kind, value, offset) ----------------------

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def next(self) -> tuple:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, word=None) -> tuple:
        """The next token, which must be of the kind and, given a word, be it."""
        t = self.next()
        if t[0] != kind or word is not None and t[1] != word:
            raise _error(f"expected {word or kind!r}, found {t[1]!r}", t[2])
        return t

    def expect_int(self) -> int:
        neg = self.peek()[0] == "-"
        if neg:
            self.next()
        value = self.expect("int")[1]
        return -value if neg else value

    def expect_rational(self) -> Scalar:
        v = self.expect_int()
        if self.peek()[0] == "/":
            self.next()
            at = self.peek()[2]
            denom = self.expect_int()
            if denom == 0:
                raise _error("division by zero", at)
            v = qdiv(v, denom)
        return v

    def comma_list(self, item, close: str) -> list:
        """Parse `item, item, ...` (possibly empty) and the closing token."""
        out = []
        if self.peek()[0] != close:
            out.append(item())
            while self.peek()[0] == ",":
                self.next()
                out.append(item())
        self.expect(close)
        return out

    # expressions ----------------------------------------------------------

    def expr(self, rbp: int = 0):
        """Pratt parser for the expression sublanguage, distributing as it
        reads: (terms, offset), the terms (coefficient, factor list) pairs
        and the offset that of the last operator read at this level, or else
        of the first token.  A chain of operators is read in this loop."""
        terms, at = self.nud(self.next())
        while self.LBP.get(self.peek()[0], 0) > rbp:
            op, _, at = self.next()
            right, _ = self.expr(self.LBP[op])
            if op == "+":
                terms += right
            elif op == "-":
                terms += [(-c, fs) for c, fs in right]
            elif op == "*":
                terms = [(c1 * c2, f1 + f2) for c1, f1 in terms for c2, f2 in right]
            else:   # a denominator must expand to constants; their sum is the divisor
                if any(fs for _, fs in right):
                    raise _error("division is only defined by numeric constants", at)
                divisor = sum(c for c, _ in right)
                if divisor == 0:
                    raise _error("division by zero", at)
                terms = [(qdiv(c, divisor), fs) for c, fs in terms]
        return terms, at

    def nested(self, opener: tuple, rbp: int = 0):
        """An expression one nesting level below the opener token."""
        if self.depth == MAX_NESTING:
            raise _error(f"expression nested more than {MAX_NESTING} levels deep", opener[2])
        self.depth += 1
        try:
            return self.expr(rbp)
        finally:
            self.depth -= 1

    def nud(self, t: tuple):
        kind, value, at = t
        if kind == "int":
            return [(value, [])], at
        if kind == "(":
            e = self.nested(t)
            self.expect(")")
            return e
        if kind == "-":
            terms, _ = self.nested(t, 25)
            return [(-c, fs) for c, fs in terms], at
        if kind == "[":
            left = self.nested(t)
            self.expect(",")
            right = self.nested(t)
            closer = self.next()
            if closer[0] != "]":
                raise _error("the bracket takes exactly two arguments", closer[2])
            return [(1, [Factor("bracket", (left, right), at)])], at
        if kind == "name":
            return [(1, [self.name_atom(t)])], at
        raise _error(f"unexpected token {value!r}", at)

    def name_atom(self, t: tuple) -> Factor:
        _, name, at = t
        if name in ("d", "Tr") and self.peek()[0] == "(":
            self.next()
            e = self.nested(t)
            self.expect(")")
            return Factor("d" if name == "d" else "tr", e, at)
        if name == "theta" and self.peek()[0] == "(":
            self.next()
            k = self.expect("int")[1]
            self.expect(";")
            idx = self.comma_list(self.index_atom, ")")
            if len(idx) != k:
                raise _error(f"theta({k}; ...) takes {k} indices, got {len(idx)}", at)
            return Factor("theta_basis", tuple(idx), at)
        return self.reference(t)

    def reference(self, name_tok: tuple) -> Factor:
        """The `[i, ...]{k}` tail, both parts optional, of a name."""
        args = ()
        lie_sel = None
        if self.peek()[0] == "[":
            self.next()
            args = tuple(self.comma_list(self.index_atom, "]"))
        if self.peek()[0] == "{":
            self.next()
            lie_sel = self.expect("int")[1]
            self.expect("}")
        return Factor("ref", (name_tok[1], args, lie_sel), name_tok[2])

    def index_atom(self):
        kind, value, at = self.next()
        if kind == "int":
            return ("int", value, at)
        if kind == "name":
            return ("var", value, at)
        raise _error("expected an index", at)

    # statements -----------------------------------------------------------

    def need_builder(self, at) -> ModelBuilder:
        if self.builder is None:
            raise _error("the base dimension must be declared first", at,
                         hint="start with: base dim = <n>;")
        return self.builder

    def parse(self) -> Model:
        """Build the model; a DslError raised here carries self.diags, each
        located by a Span."""
        while self.peek()[0] != "eof":
            start = self.pos
            try:
                self.statement()
            except DslError as e:
                self.diags.extend(e.diagnostics)
                self.pos = start
                self.skip_statement()
        failed = any(d.severity == "error" for d in self.diags)
        if not failed and self.builder is None:
            failed = True
            self.diags.append(Diagnostic(
                "error", "empty model: no base dimension declared", None))
        if self.diags:
            self.diags = self.located(self.diags)
        if failed:
            raise DslError(self.diags)
        b = self.builder
        b.weak(self._weak is True)
        b.name = self.name
        return b.build()

    def located(self, diags: List[Diagnostic]) -> List[Diagnostic]:
        """diags with each offset replaced by the Span of its line and column
        in the source; a tab or a \\r is one column."""
        starts = [0, *itertools.accumulate(len(line) + 1 for line in self.text.split("\n"))]
        out = []
        for d in diags:
            if isinstance(d.span, int):
                line = bisect.bisect_right(starts, d.span)
                d = d._replace(span=Span(self.source, line, d.span - starts[line - 1] + 1))
            out.append(d)
        return out

    def skip_statement(self):
        """Skip the statement that begins at the current token: past its
        closing ';' or, for a lie block, past the '}' that ends the block.  The
        ';' of theta(k; ...), which follows 'theta ( int', ends nothing; any
        other ';' does, so an unclosed '(' hides no later statement."""
        block = self.peek()[:2] == ("name", "lie")
        depth = 0
        while True:
            kind = self.peek()[0]
            if kind == "eof":
                return
            self.next()
            if kind == "{":
                depth += 1
            elif kind == "}":
                depth -= 1
                if depth < 0 or (block and depth == 0):
                    return
            elif kind == ";" and depth == 0:
                head = [x[:2] for x in self.toks[max(self.pos - 4, 0):self.pos - 2]]
                if head != [("name", "theta"), ("(", "(")] or self.toks[self.pos - 2][0] != "int":
                    return

    def statement(self):
        kind, value, at = self.peek()
        if kind != "name":
            raise _error(f"expected a declaration, found {value!r}", at)
        stmt = self.STATEMENTS.get(value)
        if stmt is None:
            raise _error(f"unknown declaration {value!r}", at)
        stmt(self)

    def stmt_model(self):
        at = self.next()[2]
        name = self.expect("name")[1]
        self.expect(";")
        if self._named:
            raise _error("model name declared twice", at)
        self._named = True
        self.name = name

    def stmt_base(self):
        at = self.next()[2]
        self.expect("name", "dim")
        self.expect("=")
        n = self.expect_int()
        self.expect(";")
        if self.builder is not None:
            raise _error("base dimension declared twice", at)
        self.builder = _given(at, ModelBuilder, self.name, n)
        self.evaluator = Evaluator(self.builder)

    def parse_diag(self) -> List[Scalar]:
        self.expect("name", "diag")
        self.expect("(")
        return self.comma_list(self.expect_rational, ")")

    def stmt_metric(self):
        at = self.next()[2]
        b = self.need_builder(at)
        self.expect("=")
        vals = self.parse_diag()
        self.expect(";")
        _given(at, b.metric, vals)

    def stmt_lie(self):
        b = self.need_builder(self.next()[2])
        _, lie_name, name_at = self.expect("name")
        self.expect("{")
        dim = None
        entries: List[Tuple[int, int, int, Scalar, int]] = []
        kappa_diag: Optional[List[Scalar]] = None
        antisymmetrize = False
        while self.peek()[0] != "}":
            _, entry, at = self.expect("name")
            if entry == "dim":
                self.expect("=")
                value_at = self.peek()[2]
                value = self.expect_int()
                if value < 1:
                    raise _error("lie dimension must be at least 1", value_at)
                self.expect(";")
                if dim is not None:
                    raise _error("lie dimension declared twice", at)
                dim = value
            elif entry == "f":
                idx = []
                for _ in range(3):
                    self.expect("[")
                    idx.append(self.expect_int())
                    self.expect("]")
                self.expect("=")
                val = self.expect_rational()
                self.expect(";")
                entries.append((idx[0], idx[1], idx[2], val, at))
            elif entry == "kappa":
                self.expect("=")
                value = self.parse_diag()
                self.expect(";")
                if kappa_diag is not None:
                    raise _error("kappa declared twice", at)
                kappa_diag = value
            elif entry == "antisymmetrize":
                antisymmetrize = True
                self.expect(";")
            else:
                raise _error(f"unknown lie-block entry {entry!r}", at)
        self.expect("}")
        if dim is None:
            raise _error(f"lie {lie_name!r} does not declare its dimension", name_at)
        # each entry fixes its constant, and under antisymmetrize the five
        # permuted ones, to one value: a repeat must keep it
        consts: Dict[Tuple[int, int, int], Scalar] = {}
        for a, bb, c, val, at in entries:
            for k in (a, bb, c):
                if not 1 <= k <= dim:
                    raise _error(f"lie index {k} outside 1..{dim}", at)
            base = (a - 1, bb - 1, c - 1)
            perms = [(0, 1, 2)]
            if antisymmetrize:
                if len(set(base)) != 3:
                    raise _error("antisymmetrize needs distinct indices", at)
                perms = itertools.permutations(range(3))
            for perm in perms:
                v = sort_sign(perm)[0] * val
                if consts.setdefault(tuple(base[k] for k in perm), v) != v:
                    raise _error("conflicting structure constants", at)
        f = [[[consts.get((i, j, k), 0) for k in range(dim)] for j in range(dim)]
             for i in range(dim)]
        if kappa_diag is None:
            kappa_diag = [1] * dim
        if len(kappa_diag) != dim:
            raise _error("kappa diagonal length does not match dim", name_at)
        kappa = [[kappa_diag[i] if i == j else 0 for j in range(dim)]
                 for i in range(dim)]
        try:
            data = LieAlgebraData(lie_name, dim, f, kappa)
            b.lie(data)
        except GradedAlgebraError as e:
            hint = None
            if "antisymmetric" in str(e) and not antisymmetrize:
                hint = "add 'antisymmetrize;' to complete the given entries"
            raise _error(str(e), name_at, hint)

    def stmt_coord(self):
        b = self.need_builder(self.next()[2])
        _, name, name_at = self.expect("name")
        if name in RESERVED:
            raise _error(f"{name!r} is reserved and cannot name a coordinate", name_at)
        slots = []
        if self.peek()[0] == "[":
            self.next()
            slots = self.comma_list(lambda: self.expect("name")[1], "]")
            if len(set(slots)) != len(slots):
                raise _error("index slots must use distinct variables", name_at)
        self.expect(":")
        self.expect("name", "gh")
        self.expect("=")
        gh = self.expect_int()
        antisym = False
        lie = None
        while self.peek()[0] == "name":
            _, attr, at = self.next()
            if attr == "antisym":
                antisym = True
            elif attr == "in":
                if lie is not None:
                    raise _error(f"lie algebra of {name!r} declared twice", at)
                _, lie_name, lie_at = self.expect("name")
                lie = b.lies.get(lie_name)
                if lie is None:
                    raise _error(f"undeclared lie algebra {lie_name!r}", lie_at)
            else:
                raise _error(f"unknown coordinate attribute {attr!r}", at)
        self.expect(";")
        _given(name_at, b.fiber, name, gh, slots=len(slots), antisym=antisym, lie=lie)

    def stmt_q(self):
        b = self.need_builder(self.next()[2])
        target = self.reference(self.expect("name"))
        self.expect("=")
        rhs = self.expr()
        self.expect(";")
        ev = self.evaluator
        (name, args, lie_sel), at = target.parts, target.at
        free = [a for kind, a, _ in args if kind == "var"]
        if len(set(free)) != len(free):
            raise _error("left-hand index variables must be distinct", at)
        ev.coordinate_lie(target)
        plan = ev.plan(rhs, set(free))
        rules = []
        # the first variable varies slowest
        for values in itertools.product(b.base_indices, repeat=len(free)):
            env = dict(zip(free, values))
            lie, comps = ev.resolve(target, env)
            value = ev.statement_value(plan, env)
            if name in ("x", "theta"):
                if isinstance(value, LieValued):
                    raise _error("base coordinates take scalar Q-rules", at)
                g = comps[0][1]
                if value == base_q(b.x, b.theta)[g]:
                    continue
                self.diags.append(Diagnostic(
                    "warning", f"Q-rule for {name}[{g.base_index[0]}] overrides the canonical "
                    f"base differential", at))
                rules.append((g, value))
                continue
            if lie is None:
                if isinstance(value, LieValued):
                    raise _error("a single lie component takes a scalar rule"
                                 if lie_sel is not None
                                 else f"{name!r} carries no lie algebra", at)
                values = [value]
            else:
                if isinstance(value, Poly) and value.is_zero():
                    value = LieValued(lie, [Poly.zero()] * lie.dim)
                if not isinstance(value, LieValued) or value.lie is not lie:
                    raise _error(f"Q-rule for {name!r} must be {lie.name}-valued", at)
                values = value.components
            for (sign, g), v in zip(comps, values):
                if sign != 0:
                    rules.append((g, v if sign == 1 else -v))
                elif not v.is_zero():
                    raise _error("nonzero Q-rule on a vanishing antisymmetric component", at)
        _given(at, b.q_rules, rules)

    def stmt_chi(self):
        at = self.next()[2]
        b = self.need_builder(at)
        self.expect("=")
        rhs = self.expr()
        self.expect(";")
        ev = self.evaluator
        value = ev.statement_value(ev.plan(rhs, set()), {})
        if isinstance(value, LieValued):
            raise _error("chi must be a scalar expression; wrap lie factors "
                         "in Tr(...)", at)
        _given(at, b.chi, value)

    def stmt_weak(self):
        at = self.next()[2]
        self.expect("=")
        _, value, value_at = self.expect("name")
        if value not in ("true", "false"):
            raise _error("weak takes true or false", value_at)
        self.expect(";")
        if self._weak is not None:
            raise _error("weak declared twice", at)
        self._weak = value == "true"

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
