"""The allow-list of tests/reach.py: each line names a function of gpde and
gives one of the fixed reasons.  The scan itself runs every verb and takes
seconds, so it runs as its own CI step; this test compiles the modules only."""

import re
from pathlib import Path

import gpde
from reach import REASONS, allowed, functions


def test_every_allowed_name_is_a_function_of_gpde_with_a_listed_reason():
    package = Path(gpde.__file__).resolve().parent
    every = {(path.stem, name) for path in package.glob("*.py") for _, name in functions(path)}
    allow = allowed()
    assert allow
    for entry, reason in allow.items():
        assert entry in every, entry
        assert reason.startswith(REASONS), entry
        if reason.startswith("roadmap item"):
            assert re.match(r"roadmap item \d+$", reason), entry
