"""One pipeline request: a CLI verb on a freshly loaded model, and its verdict gate."""

from __future__ import annotations

import contextlib
import io
import json
import re

from inputs import POSITIVE

CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+) residual_terms=(\d+)")


def parse_checks(stdout: str, fmt: str):
    """(name, passed, residual_terms) for every check the report printed."""
    if not stdout.strip():
        return []
    if fmt == "json":
        payload = json.loads(stdout)
        return [(c["name"], c["pass"], c["residual_terms"]) for c in payload["checks"]]
    out = []
    for line in stdout.splitlines():
        m = CHECK_LINE.match(line)
        if m:
            out.append((m.group(2), m.group(1) == "PASS", int(m.group(3))))
    return out


def gate(expect, code, stdout, stderr, fmt):
    """Return None when the request's verdict matches the expectation built
    with its input, otherwise a one-line reason."""
    exit_code, checks, fragment = expect
    if code != exit_code:
        return f"exit {code}, expected {exit_code}: {stderr.strip()[:200]}"
    if fragment and fragment not in stdout + stderr:
        return f"missing {fragment!r}"
    if checks is None:
        return None
    got = parse_checks(stdout, fmt)
    if [g[:2] for g in got] != [c[:2] for c in checks]:
        return f"checks {got}, expected {checks}"
    for (name, _, res), (_, _, want) in zip(got, checks):
        if want == POSITIVE and res <= 0 or isinstance(want, int) and res != want:
            return f"{name} residual_terms={res}, expected {want}"
    return None


def run_request(argv):
    """Call gpde.cli.main in-process, looked up at call time so a traced run
    goes through the same attribute; returns (exit code, stdout, stderr)."""
    from gpde import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()
