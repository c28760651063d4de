"""Reach scan: the gpde functions that no command line verb enters.

    python tests/reach.py [SRC]

SRC is a directory holding a `gpde` package (default: this checkout's
`src`).  Every verb of differential.py's VERBS runs in-process on every
builtin, on the broken, the non-projecting and the base-dim-6 ym_weak
variants of properties.py and on differential.py's METRIC model; so do
`reduce toy_dim0 --at u=2,v=-1/3` and `check` on one malformed file.  A
profile function records each code object entered meanwhile, and while
gpde is imported.  The scan prints, per module, the named functions of
SRC/gpde that none of these runs entered, in source order.

The allow-list ALLOW (reach_allow.txt beside this file) names each function
that may stay unentered, one `module qualified.name  # reason` a line, the
reason one of REASONS.  The exit status is 1, and the offending names are
printed, when a function is unentered and not listed, or when a listed
function is entered or gone; otherwise it is 0.
"""

from __future__ import annotations

import inspect
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ALLOW = HERE / "reach_allow.txt"
# why a function may stay unentered: perfbench/ calls or wraps it (or it
# serves one that does), it is an operator or a debugging aid, it raises
# an error no run provokes, the README's Python API section names it, it
# renders model text back (round trip), or a ROADMAP item gives it a reader
REASONS = ("perfbench", "operator", "debugging aid", "error path", "python api",
           "round trip", "roadmap item")
MALFORMED = "base dim = 1;\ncoord u : gh = ;\n"


def functions(path: Path):
    """(first line, qualified name) of every named function compiled from
    one module file, nested ones included.  The names are built here, since
    Python 3.10 code objects carry no co_qualname."""
    out, todo = [], [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
    while todo:
        code, prefix = todo.pop()
        function = code.co_flags & inspect.CO_OPTIMIZED
        if function and not code.co_name.startswith("<"):
            out.append((code.co_firstlineno, prefix + code.co_name))
        inner = "" if code.co_name == "<module>" else \
            prefix + code.co_name + (".<locals>." if function else ".")
        todo.extend((c, inner) for c in code.co_consts if inspect.iscode(c))
    return sorted(out)


def allowed():
    """{(module, qualified name): reason} of the allow-list file."""
    out = {}
    for line in ALLOW.read_text(encoding="utf-8").splitlines():
        entry, _, reason = line.partition("#")
        if entry.strip():
            module, name = entry.split()
            out[module, name] = reason.strip()
    return out


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    src = Path(args[0] if args else HERE.parent / "src").resolve()
    sys.path.insert(0, str(src))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)     # a run imports gpde too: decorators count
    import gpde.cli
    sys.setprofile(None)
    from differential import METRIC, VERBS, verb_case
    from properties import broken_ym_source, non_projecting_ym_source, ym_source

    from gpde.parser import builtin_names

    with tempfile.TemporaryDirectory() as tmp:
        files = {"broken_ym": broken_ym_source(), "non_projecting_ym": non_projecting_ym_source(),
                 "ym6": ym_source(6), "metric": METRIC, "malformed": MALFORMED}
        for name, text in files.items():
            Path(tmp, f"{name}.gpde").write_text(text, encoding="utf-8")
        models = list(builtin_names()) + [str(Path(tmp, f"{name}.gpde"))
                                          for name in ("broken_ym", "non_projecting_ym", "ym6",
                                                       "metric")]
        runs = [verb[:1] + [model] + verb[1:] for model in models for verb in VERBS]
        runs += [["reduce", "toy_dim0", "--at", "u=2,v=-1/3"],
                 ["check", str(Path(tmp, "malformed.gpde"))]]
        sys.setprofile(profile)
        try:
            for argv in runs:
                verb_case(argv)
        finally:
            sys.setprofile(None)

    package = Path(gpde.cli.__file__).resolve().parent
    entered = {(os.path.realpath(f), line) for f, line in entered}
    total, every, unentered, lines = 0, set(), [], []
    for path in sorted(package.glob("*.py")):
        found = functions(path)
        names = [name for line, name in found if (str(path), line) not in entered]
        total += len(found)
        every.update((path.stem, name) for _, name in found)
        unentered += [(path.stem, name) for name in names]
        if names:
            lines.append(f"{path.stem}: {', '.join(names)}")
    print(f"{len(runs)} runs; {len(unentered)} of {total} functions in {package} never entered")
    print("\n".join(lines))
    allow = allowed()
    unlisted = [f for f in unentered if f not in allow]
    stale = [f for f in allow if f not in unentered]
    for module, name in unlisted:
        print(f"not on {ALLOW.name}, and no run enters it: {module} {name}")
    for module, name in stale:
        print(f"on {ALLOW.name}, but " + ("a run enters it" if (module, name) in every
                                          else "no such function") + f": {module} {name}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
