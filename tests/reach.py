"""Reach scan: the gpde functions that no command line verb enters.

    python tests/reach.py [SRC]

SRC is a directory holding a `gpde` package (default: this checkout's
`src`).  Every verb of differential.py's VERBS runs in-process on every
builtin and on the broken, the non-projecting and the base-dim-6 ym_weak
variants of properties.py; so do `reduce toy_dim0 --at u=2,v=-1/3` and
`check` on one malformed file.  A profile function records each code
object entered meanwhile, and while gpde is imported.  The scan prints,
per module, the named functions of SRC/gpde that none of these runs
entered, in source order.  It reports and never fails: the exit status
is 0.
"""

from __future__ import annotations

import inspect
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MALFORMED = "base dim = 1;\ncoord u : gh = ;\n"


def functions(path: Path):
    """(first line, qualified name) of every named function compiled from
    one module file, nested ones included."""
    out, todo = [], [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            out.append((code.co_firstlineno, getattr(code, "co_qualname", code.co_name)))
    return sorted(out)


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
    from differential import VERBS, verb_case
    from properties import broken_ym_source, non_projecting_ym_source, ym_source

    from gpde.parser import builtin_names

    with tempfile.TemporaryDirectory() as tmp:
        files = {"broken_ym": broken_ym_source(), "non_projecting_ym": non_projecting_ym_source(),
                 "ym6": ym_source(6), "malformed": MALFORMED}
        for name, text in files.items():
            Path(tmp, f"{name}.gpde").write_text(text, encoding="utf-8")
        models = list(builtin_names()) + [str(Path(tmp, f"{name}.gpde"))
                                          for name in ("broken_ym", "non_projecting_ym", "ym6")]
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
    total = missed = 0
    lines = []
    for path in sorted(package.glob("*.py")):
        found = functions(path)
        names = [name for line, name in found if (str(path), line) not in entered]
        total, missed = total + len(found), missed + len(names)
        if names:
            lines.append(f"{path.stem}: {', '.join(names)}")
    print(f"{len(runs)} runs; {missed} of {total} functions in {package} never entered")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
