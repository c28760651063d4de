"""The differential check of tests/differential.py, on a slice of its cases."""

from pathlib import Path

import gpde
from differential import compare, field_diff, main


def test_a_tree_agrees_with_itself(capsys):
    tree = str(Path(gpde.__file__).resolve().parents[1])
    assert main([tree, tree, "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("166 parse cases, 7 verb cases (")
    assert out.endswith("; 0 differ\n")


def test_the_first_difference_is_diffed_by_field():
    cases = [("a", "parse", ""), ("b", "verb", ["check", "m"]), ("c", "parse", "")]
    old = {"a": {"diagnostics": []}, "b": {"exit": 0, "stdout": "x\ny\n", "stderr": ""},
           "c": {"diagnostics": ["e"]}}
    new = {"a": {"diagnostics": []}, "b": {"exit": 1, "stdout": "x\nz\n", "stderr": ""},
           "c": {"diagnostics": ["f"]}}
    assert compare(cases, old, new) == ["b", "c"]
    diff = field_diff(old["b"], new["b"]).splitlines()
    assert diff[:2] == ["--- old exit", "+++ new exit"]
    assert "-0" in diff and "+1" in diff and "-y" in diff and "+z" in diff
    assert not any("stderr" in line for line in diff)
