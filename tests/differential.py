"""Differential check: the same cases on two gpde source trees, compared.

    python tests/differential.py OLD_SRC NEW_SRC [--quick]

OLD_SRC and NEW_SRC are directories holding a `gpde` package, such as the
`src` of two checkouts.  Each tree runs every case in its own subprocess and
dumps the outputs as JSON; the dumps are compared case by case, in order,
and the first case that differs is printed with a diff of each field that
differs.  The exit status is 0 when every case agrees and 1 otherwise.

Two kinds of case:

* parse: the sources of perfbench's `model_corpus` (cycles 0 and 1 at seed
  7), the builtin model files, seeded one-character mutants of them and the
  sources of REPEATS.  A case records every diagnostic string and, when a
  model loads, its `model_to_source` text.
* verbs: every verb on every builtin; `report` and `reduce` on ym_weak at
  base dims 4 to 8; every verb on the broken and the non-projecting ym_weak
  variants; `reduce` on base-dim-0 models whose chi is 0; `reduce --at` at
  points of toy_dim0 and ym_weak, whose coordinate names may hold commas.  A
  case records stdout, stderr and the exit code of `gpde.cli.main`.

The cases are built once, from NEW_SRC's builtin model files.  `--quick`
keeps a slice of each kind that runs in about a second.
"""

from __future__ import annotations

import difflib
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
    """The cases [(case id, kind, payload)], parse cases first, and the
    model files {name: text} the verbs read.  A parse payload is the source
    text, a verb payload the argv."""
    if "gpde" not in sys.modules:   # properties.py reads ym_weak from gpde's models
        sys.path.insert(0, str(new_src))
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench.inputs import corpus_cycle
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

    files = {"broken_ym.gpde": broken_ym_source(),
             "non_projecting_ym.gpde": non_projecting_ym_source(),
             **{f"ym{n}.gpde": ym_source(n) for n in range(4, 9)},
             **{f"{name}.gpde": src for name, src in ZERO_CHI.items()}}
    runs = [verb[:1] + [name] + verb[1:] for name in builtins for verb in VERBS]
    runs += [[verb, f"ym{n}.gpde"] for n in range(4, 9) for verb in ("report", "reduce")]
    runs += [verb[:1] + [f"{name}.gpde"] + verb[1:]
             for name in ("broken_ym", "non_projecting_ym") for verb in VERBS]
    runs += [["reduce", f"{name}.gpde"] + at for name in ZERO_CHI for at in ([], ["--at", "u=1"])]
    runs += [["reduce", name, "--at", at] for name, at in AT_POINTS]
    if quick:
        runs = [r for r in runs if r[1] in ("toy_dim0", "ce_aksz", "zero_chi.gpde")
                and r[0] in ("check", "reduce")]
    cases += [("verbs/" + " ".join(argv), "verb", argv) for argv in runs]
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


def worker(job_path, out_path):
    """Read {"cases": ..., "files": ...} from the job file, write the files
    into the working directory, run the cases and write
    {"gpde": package path, "results": {case id: output}} to out_path."""
    import gpde

    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    for name, text in job["files"].items():
        Path(name).write_text(text, encoding="utf-8")
    results = {cid: parse_case(payload) if kind == "parse" else verb_case(payload)
               for cid, kind, payload in job["cases"]}
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


def field_diff(old, new) -> str:
    """A unified diff of each field of two case outputs that differs."""
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        a_lines = a if isinstance(a, list) else str(a).splitlines()
        b_lines = b if isinstance(b, list) else str(b).splitlines()
        lines += difflib.unified_diff(a_lines, b_lines, f"old {key}", f"new {key}", lineterm="")
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
