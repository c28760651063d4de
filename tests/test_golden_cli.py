"""Golden CLI snapshots: the exact text report, stderr and exit code of the
main verbs on every builtin model.

Each case has a snapshot `golden/<case>.<model>.txt` (stdout) and an entry
in `golden/status.json` (exit code and stderr).  The LaTeX snapshots
`golden/report_latex.<model>.tex` pin the rendered formulas.
"""

import json
import random
from pathlib import Path

import pytest

from gpde.cli import main

GOLDEN = Path(__file__).parent / "golden"
BUILTINS = ["toy_dim0", "ce_aksz", "maxwell_weak", "ym_weak"]
VERBS = {
    "check": ["check"],
    "hamiltonian": ["hamiltonian"],
    "bv-action": ["bv-action"],
    "bv-action_ghost0": ["bv-action", "--ghost", "0"],
    "reduce": ["reduce"],
    "report": ["report"],
    "boundary_kill0": ["boundary", "--kill", "0"],
}
CASES = [(c, m) for c in VERBS if c != "boundary_kill0" for m in BUILTINS]
CASES += [("boundary_kill0", m) for m in ("maxwell_weak", "ym_weak")]
STATUS = json.loads((GOLDEN / "status.json").read_text())


@pytest.mark.parametrize("case,model", CASES, ids=[f"{c}.{m}" for c, m in CASES])
def test_text_snapshot(case, model, capsys):
    argv = VERBS[case]
    rc = main([argv[0], model] + argv[1:])
    cap = capsys.readouterr()
    name = f"{case}.{model}"
    assert cap.out == (GOLDEN / f"{name}.txt").read_text()
    assert cap.err == STATUS[name]["stderr"]
    assert rc == STATUS[name]["exit"]


@pytest.mark.parametrize("model", ["toy_dim0", "maxwell_weak"])
def test_latex_report_snapshot(model, capsys):
    assert main(["report", model, "--format", "latex"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"report_latex.{model}.tex").read_text()


# requests without a snapshot, each served just before the golden case it
# must leave no trace in
PRECEDING = {
    ("reduce", "ym_weak"): ["reduce", "ym_weak", "--order", "3"],
    ("reduce", "toy_dim0"): ["reduce", "toy_dim0", "--at", "u=2,v=-1/3"],
}


def test_shuffled_repeated_requests_match_snapshots(capsys):
    """One process serves every golden case twice, in a seeded shuffled
    order: no state kept between requests, such as the argument parser
    built once per process, changes an output."""
    order = CASES * 2
    random.Random(9).shuffle(order)
    seen = {}
    for case, model in order:
        pre = PRECEDING.get((case, model))
        if pre is not None:
            rc = main(pre)
            cap = capsys.readouterr()
            assert seen.setdefault(tuple(pre), (rc, cap.out, cap.err)) == (rc, cap.out, cap.err)
        argv = VERBS[case]
        rc = main([argv[0], model] + argv[1:])
        cap = capsys.readouterr()
        name = f"{case}.{model}"
        assert cap.out == (GOLDEN / f"{name}.txt").read_text(), name
        assert (rc, cap.err) == (STATUS[name]["exit"], STATUS[name]["stderr"]), name
