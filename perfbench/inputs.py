"""Seeded model sources for the pipeline workloads, each with its expected verdicts.

Every expectation here follows from how the source was built, never from
running gpde:

* rescaling an su(2) basis diagonally (e_i -> s_i e_i) and choosing any
  nonzero rational metric diagonal keeps every check of a connection-curvature
  model passing;
* `weak = false` on a curved model (non-abelian, base dim >= 3) makes
  `nilpotency` fail, while a flat one is strict;
* a point model with Q v_i = dW/du_i and chi = sum v_i du_i has
  i_Q omega = dW exact, so every presymplectic check passes, and the kernel of
  omega is spanned by the coordinates chi does not mention;
* a model without chi has no hamiltonian and nothing to reduce;
* each malformed template carries the diagnostic the parser gives for it.

A verb's expectation is (exit code, checks, stderr fragment), where checks is a
list of (name, passed, residual_terms) with residual_terms 0 or POSITIVE, and
the fragment must appear in the printed report or diagnostics.
"""

from __future__ import annotations

import random
from fractions import Fraction

POSITIVE = "positive"

SCALES = [Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "2/3", "-3/2")]
METRIC = [Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-1/3")]
COEFFS = [Fraction(v) for v in ("1", "-1", "2", "-3", "1/2", "-1/3", "3/4", "5")]


def frac(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def diag(vals) -> str:
    return "diag(" + ", ".join(frac(v) for v in vals) + ")"


# lie algebra blocks ---------------------------------------------------------


def su2_block(name, rng, extra_u1=False):
    """su(2) in the basis e_i' = s_i e_i, optionally plus a central u(1).

    f'[a][b][c] = s_b s_c / s_a f[a][b][c] with f[a][b][c] the a-component of
    [e_b, e_c], and kappa' = lam diag(s_i^2).  Entries are written out
    because `antisymmetrize` would antisymmetrize all three indices."""
    s = [rng.choice(SCALES) for _ in range(3)]
    lam = rng.choice(SCALES)
    lines = [f"lie {name} {{", f"  dim = {4 if extra_u1 else 3};"]
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        v = s[b] * s[c] / s[a]
        lines.append(f"  f[{a + 1}][{b + 1}][{c + 1}] = {frac(v)};")
        lines.append(f"  f[{a + 1}][{c + 1}][{b + 1}] = {frac(-v)};")
    kappa = [lam * x * x for x in s]
    if extra_u1:
        kappa.append(rng.choice(SCALES))
    lines.append(f"  kappa = {diag(kappa)};")
    lines.append("}")
    return "\n".join(lines)


def abelian_block(name, rng, dim):
    return "\n".join([f"lie {name} {{", f"  dim = {dim};",
                      f"  kappa = {diag(rng.choice(SCALES) for _ in range(dim))};", "}"])


def lie_block(kind, name, rng):
    if kind == "su2":
        return su2_block(name, rng)
    if kind == "su2+u1":
        return su2_block(name, rng, extra_u1=True)
    return abelian_block(name, rng, int(kind[1:]))  # "u1", "u2"


# model classes -----------------------------------------------------------


def curved_source(name, rng, n, lie, weak=True):
    """Connection-curvature model (ym_weak is the n=4, unit-scale su2 member)."""
    return "\n".join([
        f"model {name};",
        f"base dim = {n};",
        f"metric = {diag(rng.choice(METRIC) for _ in range(n))};",
        lie_block(lie, "g", rng),
        "coord C : gh = 1 in g;",
        "coord F[a, b] : gh = 0 antisym in g;",
        "Q C = -1/2*[C, C] + 1/2*theta[a]*theta[b]*F[a, b];",
        "Q F[a, b] = [F[a, b], C];",
        "chi = inveta[a, c]*inveta[b, d]*theta(2; a, b)*Tr(F[c, d]*d(C));",
        f"weak = {'true' if weak else 'false'};",
    ]) + "\n"


def ce_source(name, rng, n, lie):
    """Chevalley-Eilenberg model: Q C = -1/2 [C, C], no presymplectic potential."""
    return "\n".join([f"model {name};", f"base dim = {n};", lie_block(lie, "g", rng),
                      "coord C : gh = 1 in g;", "Q C = -1/2*[C, C];"]) + "\n"


def _poly(terms, names):
    """Render {exponent tuple: coefficient} over the named variables."""
    out = []
    for exps, c in sorted(terms.items()):
        factors = [n for n, e in zip(names, exps) for _ in range(e)]
        out.append("*".join([f"({frac(c)})"] + factors))
    return " + ".join(out) if out else "0"


def point_source(name, rng, k, extra, degree):
    """Base dim 0: u_i (gh 0), v_i and z_j (gh -1), Q v_i = dW/du_i,
    Q z_j = P_j(u), chi = sum v_i d(u_i)."""
    us = [f"u{i + 1}" for i in range(k)]
    W = {}
    for i in range(k):  # every u_i occurs, so no Q-rule is empty
        e = [0] * k
        e[i] = 2
        W[tuple(e)] = rng.choice(COEFFS)
    for _ in range(2 * k):
        e = tuple(rng.randint(0, degree) for _ in range(k))
        if sum(e) >= 2:
            W[e] = rng.choice(COEFFS)
    lines = [f"model {name};", "base dim = 0;"]
    lines += [f"coord {u} : gh = 0;" for u in us]
    lines += [f"coord v{i + 1} : gh = -1;" for i in range(k)]
    lines += [f"coord z{j + 1} : gh = -1;" for j in range(extra)]
    for i in range(k):
        dW = {}
        for e, c in W.items():
            if e[i]:
                f = list(e)
                f[i] -= 1
                dW[tuple(f)] = dW.get(tuple(f), 0) + c * e[i]
        lines.append(f"Q v{i + 1} = {_poly(dW, us)};")
    for j in range(extra):
        e = tuple(rng.randint(0, degree) for _ in range(k))
        lines.append(f"Q z{j + 1} = {_poly({e: rng.choice(COEFFS)}, us)};")
    lines.append("chi = " + " + ".join(f"v{i + 1}*d(u{i + 1})" for i in range(k)) + ";")
    return "\n".join(lines) + "\n"


# malformed catalogue: (template, diagnostic fragment) ---------------------

MALFORMED = [
    ("model {m};\ncoord u : gh = 0;\n", "the base dimension must be declared first"),
    ("model {m};\nbase dim = {n};\nbase dim = {n};\n", "base dimension declared twice"),
    ("model {m};\nbase dim = {n};\ncoord C : gh = 1 in h{n};\n", "undeclared lie algebra 'h{n}'"),
    ("model {m};\nbase dim = {n};\nlie g {{\n  dim = 3;\n  f[1][2][{k}] = 1;\n}}\n",
     "lie index {k} outside 1..3"),
    ("model {m};\nbase dim = {n};\ncoord theta : gh = {k};\n", "'theta' is reserved"),
    ("model {m};\nbase dim = {n};\nlie g {{\n  dim = 2;\n  kappa = diag(1, 2, {k});\n}}\n",
     "kappa diagonal length does not match dim"),
    ("model {m};\nbase dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\nchi = v*d(u);\n"
     "chi = {k}*v*d(u);\n", "chi declared twice"),
    ("model {m};\nbase dim = {n};\nweak = maybe;\n", "weak takes true or false"),
    ("model {m};\nbase dim = {n};\nsymmetry g{k};\n", "unknown declaration 'symmetry'"),
    ("# nothing declared in {m}\n", "empty model: no base dimension declared"),
]


def malformed_source(name, rng):
    template, diag_fragment = MALFORMED[rng.randrange(len(MALFORMED))]
    fill = {"m": name, "n": rng.randint(1, 4), "k": rng.randint(4, 9)}
    return template.format(**fill), diag_fragment.format(**fill)


# expected verdicts per verb --------------------------------------------------

HAMILTONIAN = ["hamiltonian_exists", "hamiltonian_relation", "q_annihilates_hamiltonian"]
PRESYMPLECTIC = ["closed", "q_invariance", "double_contraction", "hamiltonian_obstruction"]


def passing(names):
    return [(nm, True, 0) for nm in names]


def standard_checks(weak, curved, has_chi=True):
    """`check`: Q^2 is nonzero exactly on curved models; a weak model reports
    it as `nilpotency_pattern` and passes, a strict one fails `nilpotency`."""
    residual = POSITIVE if curved else 0
    if weak:
        nil = ("nilpotency_pattern", True, residual)
    else:
        nil = ("nilpotency", not curved, residual)
    return [("projection", True, 0), nil] + (passing(PRESYMPLECTIC) if has_chi else [])


def verdict(checks, fragment=""):
    return (0 if all(p for _, p, _ in checks) else 1, checks, fragment)


def curved_expect(verb, n, curved, weak):
    """Q^2 F_ab = 1/2 theta^c theta^d [F_ab, F_cd] is nonzero only for a
    non-abelian algebra with at least two curvature components (n >= 3);
    `weak` changes nothing but the nilpotency check."""
    std = standard_checks(weak, curved)
    descent = passing(f"descent_theta_{k}" for k in range(n + 2))
    master = passing(["master_vertical", "master_scalar"])
    table = {
        "check": std,
        "hamiltonian": passing(HAMILTONIAN),
        "bv-action": passing(["bv_action"]),
        "boundary": passing(["tangency", "kernel_split"]),
        "reduce": passing(["reduction"]),
        "descent": descent,
        "bv-identities": master,
        "report": std + passing(HAMILTONIAN) + descent + master,
    }
    return verdict(table[verb])


def point_expect(verb, k, extra):
    table = {
        "check": standard_checks(False, False),
        "hamiltonian": passing(HAMILTONIAN),
        "bv-action": passing(["bv_action"]),
        "reduce": passing(["reduction"]),
    }
    fragment = f"kernel {extra}, survivors {2 * k}" if verb == "reduce" else ""
    return verdict(table[verb], fragment)


def ce_expect(verb):
    """Q^2 C = 0 is the Jacobi identity, so CE models are strict."""
    table = {
        "check": standard_checks(False, False, has_chi=False),
        "hamiltonian": [("hamiltonian_exists", False, 0)],
        "reduce": [("reduction", False, 0)],
    }
    return verdict(table[verb], "" if verb == "check" else "no presymplectic potential")


# workload input sets ---------------------------------------------------------

# `report` runs the descent tower and both master identities at order 1;
# `reduce` takes the jet order 1-3 (the cost does not depend on it)
YM_VERBS = ["report", "reduce"]


def ym_request(seed, i):
    """Request i of ym_jets: a fresh base-dim-4 su(2) variant and one verb."""
    rng = random.Random(seed * 1_000_003 + i)
    verb = YM_VERBS[i % len(YM_VERBS)]
    name = f"ym_s{seed}_r{i}"
    argv = [verb]
    if verb == "reduce":
        argv += ["--order", str(rng.randint(1, 3))]
    return name, curved_source(name, rng, 4, "su2"), argv, curved_expect(verb, 4, True, True)


CURVED_VERBS = [["check"], ["hamiltonian"], ["bv-action"], ["boundary", "--kill", "0"],
                ["reduce"], ["descent", "--order", "1"], ["bv-identities", "--order", "1"]]

# one corpus cycle: (class, shape); the seed and the cycle fix every
# coefficient, scale and malformed template, the shapes stay fixed so that
# run-to-run cost is stable.
# With CORPUS_VARIANTS, short verdicts (point, CE, malformed) are about 70% of
# the requests, so the median request falls inside their dense band rather
# than in the gap between them and the jet verbs.
CORPUS = [
    ("point", (1, 1, 3)), ("ce", (2, "su2")), ("curved", (2, "u1", True)),
    ("malformed", None), ("point", (2, 1, 3)), ("ce", (1, "u2")),
    ("curved", (2, "su2", True)), ("malformed", None), ("ce", (0, "su2+u1")),
    ("point", (1, 0, 2)), ("malformed", None), ("curved", (3, "u2", False)),
    ("point", (3, 2, 2)), ("malformed", None), ("ce", (4, "u1")),
    ("curved", (2, "su2+u1", False)), ("malformed", None), ("point", (3, 1, 3)),
    ("ce", (3, "su2")), ("malformed", None), ("curved", (3, "su2", False)),
    ("point", (2, 0, 4)), ("malformed", None), ("ce", (0, "su2")), ("malformed", None),
    ("curved", (3, "u2", True)),
]

# models of each shape in one cycle, by class.  With two curved models per
# shape the tail percentile falls inside the band of jet verbs on the
# base-dim-3 abelian models rather than in the gap below it; four of each
# cheap shape make the band around the median dense, for little time.
CORPUS_VARIANTS = {"curved": 2, "point": 4, "ce": 4, "malformed": 4}


def corpus_cycle(seed, c):
    """Every model of corpus cycle c, as corpus_model gives them.  Every
    cycle has the same shapes and number of models, with fresh values."""
    rounds = max(CORPUS_VARIANTS.values())
    return [corpus_model(seed, c, v * len(CORPUS) + j)
            for v in range(rounds) for j, (kind, _) in enumerate(CORPUS)
            if v < CORPUS_VARIANTS[kind]]


def corpus_model(seed, c, j):
    """Model j of corpus cycle c, of shape CORPUS[j mod its length], with
    its list of (argv tail, expectation)."""
    kind, shape = CORPUS[j % len(CORPUS)]
    rng = random.Random(seed * 1_000_003 + 500_000 + 1000 * c + j)
    name = f"{kind}_s{seed}_c{c}_m{j}"
    if kind == "point":
        k, extra, degree = shape
        src = point_source(name, rng, k, extra, degree)
        verbs = [["check"], ["hamiltonian"], ["bv-action"], ["reduce"]]
        return name, src, [(v, point_expect(v[0], k, extra)) for v in verbs]
    if kind == "ce":
        n, lie = shape
        src = ce_source(name, rng, n, lie)
        verbs = [["check"], ["hamiltonian"], ["reduce"]]
        return name, src, [(v, ce_expect(v[0])) for v in verbs]
    if kind == "curved":
        n, lie, weak = shape
        src = curved_source(name, rng, n, lie, weak)
        curved = lie.startswith("su2") and n >= 3
        # the failing strict model gets only the verbs that stay cheap
        verbs = CURVED_VERBS[:4] if curved and not weak else CURVED_VERBS
        return name, src, [(v, curved_expect(v[0], n, curved, weak)) for v in verbs]
    src, fragment = malformed_source(name, rng)
    return name, src, [(["check"], (2, None, fragment))]
