"""Each recorded mutant still names code that exists: its old text occurs once in its file."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_exactly_once(m):
    assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1
    assert m.new != m.old and m.tests
