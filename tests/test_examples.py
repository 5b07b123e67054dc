"""Smoke tests: every example script runs to completion.

The examples are documentation that executes; a library change that
breaks one must fail CI.  Each is run in-process via runpy with stdout
captured.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} printed nothing"


def test_all_examples_discovered():
    names = {path.stem for path in EXAMPLES}
    assert {"quickstart", "travel_agency", "mobile_booking",
            "analytic_model", "archive_and_replay"} <= names
