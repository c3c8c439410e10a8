"""Every demo script runs to completion and prints its golden text (see ``golden_set``)."""

import json

import pytest

import golden_set


@pytest.mark.parametrize("demo", golden_set.DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = golden_set.run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    want = golden_set.demo_text(demo).read_text(encoding="utf-8")
    where = golden_set.first_difference(proc.stdout, want)
    if where is not None:
        recorded = json.loads(golden_set.MANIFEST.read_text(encoding="utf-8"))["environment"]
        pytest.fail(f"{demo.name} stdout, {where}; {golden_set.environment_note(recorded)}")
