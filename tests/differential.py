"""Differential check: the same cases on two gpde source trees, compared.

    python tests/differential.py OLD_SRC NEW_SRC [--quick]

OLD_SRC and NEW_SRC are directories holding a `gpde` package, such as the
`src` of two checkouts.  Each tree runs every case in its own subprocess and
dumps the outputs as JSON; the dumps are compared case by case, in order,
and the first case that differs is printed with a diff of each field that
differs.  The exit status is 0 when every case agrees and 1 otherwise.

Three kinds of case:

* parse: the sources of perfbench's `model_corpus` (cycles 0 and 1 at seed
  7), the builtin model files, seeded one-character mutants of them, the
  sources of REPEATS, READER and SPARSE, and ym_weak at base dims 12 and
  16.  A case records every diagnostic string and, when a model loads, its
  `model_to_source` text.
* verbs: every verb on every builtin; `report` and `reduce` on ym_weak at
  base dims 4 to 8; every verb on the broken and the non-projecting ym_weak
  variants and on METRIC, the one model whose statements read eta and eps;
  `reduce` on base-dim-0 models whose chi is 0; `reduce --at` at points of
  toy_dim0 and ym_weak, whose coordinate names may hold commas.  A case
  records stdout, stderr and the exit code of `gpde.cli.main`.
* kernel: every call of perfbench's `kernel_api` schedule at KERNEL_SEED,
  built in each tree.  A case records the result canonically: sorted
  (monomial text, coefficient) pairs per Poly or Lie component, the rows
  and pivots of `rref`, the vectors of `nullspace`, the `mono_mul` tuple.

The cases are built once, from NEW_SRC's builtin model files and kernel
schedule.  `--quick` keeps a slice of each kind that runs in about a second,
and of the kernel calls the `.small` ones.
"""

from __future__ import annotations

import difflib
import functools
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

VERBS = [["check"], ["hamiltonian"], ["descent"], ["bv-identities"], ["bv-action"],
         ["bv-action", "--ghost", "0"], ["reduce"], ["boundary", "--kill", "0"],
         ["report"], ["report", "--format", "json"], ["report", "--format", "latex"]]
# one-character edits: the scanner's classes, and non-ASCII word characters
MUTANT_CHARS = list("019axQ_;:,=+-*/()[]{} \t\r\n#") + ["²", "٣", "é", "€"]
# evaluated reductions; the ym_weak names hold commas inside their brackets
AT_POINTS = [("toy_dim0", "u=2,v=-1/3"), ("ym_weak", "F[0,1]{1}[|]=1"),
             ("ym_weak", "F[0,1]{1}[|]=1,C{1}[|0,1]=2")]
# a base-dim-2 model whose Q and chi contract with eta and eps
METRIC = ("base dim = 2;\nmetric = diag(-1, 2);\ncoord u : gh = 0;\ncoord A[a] : gh = 0;\n"
          "Q u = theta[a]*eta[a, b]*A[b];\nchi = eps[a, b]*eta[b, c]*theta[a]*u*d(A[c]);\n")
KERNEL_SEED = 7
ZERO_CHI = {
    "zero_chi": "base dim = 0;\ncoord u : gh = 0;\nchi = 0;\n",
    "zero_chi_bare": "base dim = 0;\nchi = 0;\n",
}

# a rule given twice with another value: a structure constant without
# antisymmetrize, and the lie algebra of a coordinate
REPEATS = {
    "plain_constant": "base dim = 0;\nlie g {\n  dim = 3;\n  f[1][2][3] = 5;\n"
                      "  f[1][2][3] = 1;\n  f[1][3][2] = -1;\n  f[2][3][1] = 1;\n"
                      "  f[2][1][3] = -1;\n  f[3][1][2] = 1;\n  f[3][2][1] = -1;\n}\n"
                      "coord C : gh = 1 in g;\nQ C = -1/2*[C, C];\n",
    "second_in": "base dim = 0;\nlie g { dim = 1; }\nlie h { dim = 1; }\n"
                 "coord C : gh = 1 in g in h;\n",
}

# statements whose diagnostics depend on the order the reader checks in: a
# denominator beside another error, and terms summed over an empty base
READER = {
    "undeclared_target": "base dim = 1;\ncoord u : gh = 0;\nQ A[a] = u/u;\n",
    "target_arity": "base dim = 1;\ncoord A[a] : gh = 0;\nQ A = 1/0;\n",
    "undeclared_factor": "base dim = 0;\nlie g { dim = 3; f[1][2][3] = 1; antisymmetrize; }\n"
                         "coord C : gh = 1 in g;\nQ C = w*[C, C/C];\n",
    "two_divisions": "base dim = 0;\ncoord u : gh = 0;\ncoord v : gh = -1;\nQ u = v/u/0;\n",
    "empty_base_division": "base dim = 0;\nQ x[a] = 1/0;\n",
    "empty_base_sum": "base dim = 0;\ncoord u : gh = 0;\nQ u = x[a]*x[a]*zzz;\n",
    "empty_base_target": "base dim = 0;\nQ x[a] = zzz;\n",
}

LIE_G = "lie g { dim = 3; f[1][2][3] = 1; antisymmetrize; }\n"
# sums the reader runs only over the nonzeros of eta, inveta, eps and
# theta(k; ...): eps at base dims 3 and 4, literal and repeated indices, and
# lie terms whose every assignment is skipped as zero
SPARSE = {
    "eps3": "base dim = 3;\nmetric = diag(-1, 1, 1);\ncoord u : gh = 0;\ncoord A[a] : gh = 0;\n"
            "chi = eps[a, b, c]*theta[a]*theta[b]*u*d(A[c]);\n",
    "eps4": "base dim = 4;\nmetric = diag(-1, 1, 1, 1);\ncoord u : gh = 0;\ncoord A[a] : gh = 0;\n"
            "chi = eps[a, b, c, d]*theta[a]*theta[b]*theta[c]*u*d(A[d]);\n",
    "eps_bound": "base dim = 3;\nmetric = diag(1, 2, 3);\ncoord u : gh = 0;\n"
                 "coord A[a] : gh = 1;\ncoord B[a, b] : gh = 1 antisym;\n"
                 "Q A[a] = eps[a, b, c]*theta[b]*theta[c]*u"
                 " + eps[a, 0, b]*eta[b, c]*x[c]*theta[1]*theta[2]*u;\n"
                 "Q B[a, b] = eps[a, b, c]*inveta[c, 2]*theta[c]*theta[0]*u;\n",
    "eps_repeated": "base dim = 4;\nmetric = diag(-1, 1, 1, 1);\ncoord u : gh = 0;\n"
                    "coord v : gh = 2;\n"
                    "Q u = eps[a, b, a, c]*theta[b]*theta[c]*x[a]*x[a] + eps[0, 1, 2, 2]*v;\n",
    "theta_literal": "base dim = 3;\ncoord u : gh = 0;\ncoord w : gh = 0;\n"
                     "Q u = theta(2; 0, a)*x[a]*w + theta(3; 2, a, b)*theta[a]*x[b]*w;\n",
    "theta_repeated": "base dim = 3;\ncoord u : gh = 0;\ncoord v : gh = -1;\n"
                      "chi = theta(2; a, a)*x[a]*v*d(u) + theta(3; a, b, a)*theta[b]*v*d(u)"
                      " + theta(2; 1, 1)*v*d(u) + theta(2; a, b)*x[a]*x[b]*v*d(u);\n",
    "theta_beyond_base": "base dim = 2;\ncoord u : gh = 0;\ncoord w : gh = 0;\n"
                         "Q u = theta(3; a, b, c)*x[a]*x[b]*x[c]*w + theta(1; a)*x[a]*w;\n",
    "lie_term_beside_scalar": "base dim = 2;\nmetric = diag(1, 1);\n" + LIE_G
                              + "coord C : gh = 1 in g;\ncoord u : gh = 2;\ncoord v : gh = 1;\n"
                              "Q v = u + eps[a, b]*eta[a, b]*[C, C];\n",
    "lie_term_alone": "base dim = 2;\nmetric = diag(1, 1);\n" + LIE_G
                      + "coord C : gh = 1 in g;\ncoord u : gh = 2;\ncoord v : gh = 1;\n"
                      "Q v = 0*u + eps[a, b]*eta[a, b]*[C, C];\n",
    "lie_zero_sum": "base dim = 2;\nmetric = diag(1, 1);\n" + LIE_G
                    + "coord C : gh = 1 in g;\ncoord u : gh = 2;\ncoord B : gh = 1 in g;\n"
                    "Q B = eps[a, b]*eta[a, b]*[C, C] + eta[0, 1]*u"
                    " + theta(2; a, b)*eta[a, b]*[C, C];\n",
}


def mutants(bases, count, seed=5):
    """count seeded sources, each one base with one character deleted,
    inserted or replaced."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(bases)
        i = rng.randrange(len(text) + 1)
        op = rng.choice(("delete", "insert", "replace"))
        ch = "" if op == "delete" else rng.choice(MUTANT_CHARS)
        out.append(text[:i] + ch + text[i + (op != "insert"):])
    return out


def build_cases(new_src, quick=False):
    """The cases [(case id, kind, payload)], parse cases first and kernel
    cases last, and the model files {name: text} the verbs read.  A parse
    payload is the source text, a verb payload the argv, a kernel payload
    the call's position in the schedule."""
    if "gpde" not in sys.modules:   # properties.py reads ym_weak from gpde's models
        sys.path.insert(0, str(new_src))
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench.inputs import corpus_cycle
    from perfbench.kernel import schedule
    from properties import broken_ym_source, non_projecting_ym_source, ym_source

    models = Path(new_src) / "gpde" / "models"
    builtins = {p.stem: p.read_text(encoding="utf-8") for p in sorted(models.glob("*.gpde"))}
    corpus = [(name, src) for c in (0, 1) for name, src, _ in corpus_cycle(7, c)]
    if quick:   # the mutants skip the larger curved and Yang-Mills sources
        bases = [src for name, src in corpus if not name.startswith("curved")]
        bases, count = bases + [builtins["toy_dim0"], builtins["ce_aksz"]], 150
        corpus = corpus[:12]
    else:
        bases, count = list(builtins.values()) + [src for _, src in corpus], 4000
    cases = [(f"parse/corpus/{name}", "parse", src) for name, src in corpus]
    cases += [(f"parse/builtin/{name}", "parse", src) for name, src in builtins.items()]
    cases += [(f"parse/mutant/{i}", "parse", src)
              for i, src in enumerate(mutants(bases, count))]
    if not quick:
        cases += [(f"parse/repeat/{name}", "parse", src) for name, src in REPEATS.items()]
        cases += [(f"parse/reader/{name}", "parse", src) for name, src in READER.items()]
        cases += [(f"parse/sparse/{name}", "parse", src) for name, src in SPARSE.items()]
        # the large index sums of the reader
        cases += [(f"parse/reader/ym{n}", "parse", ym_source(n)) for n in (12, 16)]

    files = {"broken_ym.gpde": broken_ym_source(),
             "non_projecting_ym.gpde": non_projecting_ym_source(), "metric.gpde": METRIC,
             **{f"ym{n}.gpde": ym_source(n) for n in range(4, 9)},
             **{f"{name}.gpde": src for name, src in ZERO_CHI.items()}}
    runs = [verb[:1] + [name] + verb[1:] for name in builtins for verb in VERBS]
    runs += [[verb, f"ym{n}.gpde"] for n in range(4, 9) for verb in ("report", "reduce")]
    runs += [verb[:1] + [f"{name}.gpde"] + verb[1:]
             for name in ("broken_ym", "non_projecting_ym", "metric") for verb in VERBS]
    runs += [["reduce", f"{name}.gpde"] + at for name in ZERO_CHI for at in ([], ["--at", "u=1"])]
    runs += [["reduce", name, "--at", at] for name, at in AT_POINTS]
    if quick:
        runs = [r for r in runs if r[1] in ("toy_dim0", "ce_aksz", "zero_chi.gpde")
                and r[0] in ("check", "reduce")]
    cases += [("verbs/" + " ".join(argv), "verb", argv) for argv in runs]
    cases += [(f"kernel/{call.op}.{call.size_class}/{i}", "kernel", i)
              for i, call in enumerate(schedule(KERNEL_SEED))
              if not quick or call.size_class == "small"]
    return cases, files


# one tree's side ---------------------------------------------------------------


def parse_case(text):
    from gpde.parser import model_to_source, parse_with_diagnostics

    try:
        model, diags = parse_with_diagnostics(text)
        out = {"diagnostics": [str(d) for d in diags]}
        if model is not None:
            out["source"] = model_to_source(model)
    except Exception as e:   # a traceback is an output to compare too
        out = {"raised": f"{type(e).__name__}: {e}"}
    return out


def verb_case(argv):
    from gpde.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:
            code = f"raised {type(e).__name__}: {e}"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def coefficient_text(c) -> str:
    """An int as itself, a Fraction as n/d even when d is 1, so that a
    coefficient out of normal form shows as a difference."""
    return str(c) if type(c) is int else f"{c.numerator}/{c.denominator}"


def monomial_text(m) -> str:
    # the kernel_api generators x<i>, c<i> and their differentials have no indices
    return "*".join(g.name + (f"^{e}" if e > 1 else "") for g, e in m) or "1"


def poly_dump(p) -> list:
    return sorted((monomial_text(m), coefficient_text(c)) for m, c in p.terms.items())


def kernel_dump(op, r):
    """The result of a kernel call of the named operation as JSON."""
    if op == "algebra.mono_mul":
        return None if r is None else [r[0], monomial_text(r[1])]
    if op == "reduction.rref":
        return {"rows": [[coefficient_text(x) for x in row] for row in r[0]], "pivots": r[1]}
    if op == "reduction.nullspace":
        return [[coefficient_text(x) for x in vec] for vec in r]
    if op == "algebra.lie_bracket":
        return [poly_dump(c) for c in r.components]
    return poly_dump(r)


@functools.cache
def kernel_calls():
    """The kernel_api schedule, built once per worker."""
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench.kernel import schedule

    return schedule(KERNEL_SEED)


def kernel_case(i):
    call = kernel_calls()[i]
    try:
        return {"result": kernel_dump(call.op, call.fn(*call.args))}
    except Exception as e:
        return {"raised": f"{type(e).__name__}: {e}"}


def worker(job_path, out_path):
    """Read {"cases": ..., "files": ...} from the job file, write the files
    into the working directory, run the cases and write
    {"gpde": package path, "results": {case id: output}} to out_path."""
    import gpde

    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    for name, text in job["files"].items():
        Path(name).write_text(text, encoding="utf-8")
    run = {"parse": parse_case, "verb": verb_case, "kernel": kernel_case}
    results = {cid: run[kind](payload) for cid, kind, payload in job["cases"]}
    Path(out_path).write_text(json.dumps({"gpde": gpde.__file__, "results": results}))


# comparison -----------------------------------------------------------------


def run_trees(trees, cases, files):
    """Each tree's results, from one worker process per tree, run side by
    side in fresh working directories."""
    dumps = []
    with tempfile.TemporaryDirectory() as tmp:
        job = Path(tmp) / "job.json"
        job.write_text(json.dumps({"cases": cases, "files": files}), encoding="utf-8")
        procs = []
        for k, tree in enumerate(trees):
            cwd = Path(tmp) / str(k)
            cwd.mkdir()
            env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve())}
            procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--worker", str(job),
                 str(cwd / "out.json")], cwd=cwd, env=env))
        codes = [proc.wait() for proc in procs]
        for k, (tree, code) in enumerate(zip(trees, codes)):
            if code != 0:
                raise SystemExit(f"the worker on {tree} exited {code}")
            dump = json.loads((Path(tmp) / str(k) / "out.json").read_text())
            if Path(tree).resolve() not in Path(dump["gpde"]).resolve().parents:
                raise SystemExit(f"the worker on {tree} imported {dump['gpde']}")
            dumps.append(dump["results"])
    return dumps


def _lines(value) -> list:
    """A field as lines: a list item by item (JSON when not a string)."""
    if isinstance(value, list):
        return [x if isinstance(x, str) else json.dumps(x) for x in value]
    return str(value).splitlines()


def field_diff(old, new) -> str:
    """A unified diff of each field of two case outputs that differs."""
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        lines += difflib.unified_diff(_lines(a), _lines(b), f"old {key}", f"new {key}",
                                      lineterm="")
    return "\n".join(lines)


def compare(cases, old, new) -> list:
    """The ids of the cases whose outputs differ, in case order."""
    return [cid for cid, _, _ in cases if old[cid] != new[cid]]


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args[:1] == ["--worker"]:
        worker(*args[1:])
        return 0
    quick = "--quick" in args
    trees = [a for a in args if a != "--quick"]
    if len(trees) != 2:
        print("usage: differential.py OLD_SRC NEW_SRC [--quick]", file=sys.stderr)
        return 2
    cases, files = build_cases(trees[1], quick)
    old, new = run_trees(trees, cases, files)
    differ = compare(cases, old, new)
    kinds = Counter(kind for _, kind, _ in cases)
    rejected = sum(kind == "parse" and "source" not in new[cid] for cid, kind, _ in cases)
    print(", ".join(f"{n} {kind} cases" for kind, n in kinds.items())
          + f" ({rejected} sources rejected); {len(differ)} differ")
    if not differ:
        return 0
    for cid in differ[:20]:
        print(f"  differs: {cid}")
    first = differ[0]
    print(f"first difference: {first}")
    print(field_diff(old[first], new[first]))
    return 1


if __name__ == "__main__":
    sys.exit(main())
