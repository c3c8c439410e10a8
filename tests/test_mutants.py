"""Each recorded mutant still names code that exists, and tests that exist: its old text occurs
once in its file, and pytest collects every test id it lists."""

import os
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_exactly_once(m):
    assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1
    assert m.new != m.old and m.tests


def test_every_listed_test_id_is_collected():
    ids = {t for m in MUTANTS for t in m.tests}
    files = sorted({t.split("::")[0] for t in ids})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    missing = sorted(ids - set(proc.stdout.splitlines()))
    assert not missing, f"not collected: {missing}; pytest ended: {proc.stdout[-500:]}"
