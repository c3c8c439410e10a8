"""``tests/traffic.py``: every statement of ``src/`` that no known traffic runs is listed with a
reason, and a statement is known by its code alone."""

import subprocess
import sys

from probes import child_env
from traffic import ROOT, statements


def test_a_trailing_comment_leaves_a_statements_code_as_it_is():
    plain = "def f(x):\n    if x:\n        return (x +\n                1)\n"
    commented = ("def f(x):  # one more\n    if x:  # a nonzero x\n"
                 "        return (x +  # the sum\n                1)  # of two\n")
    assert [s[2:] for s in statements(plain)] == [s[2:] for s in statements(commented)]
    assert statements(plain)[2][3] == "return (x + 1)"


def test_the_traffic_audit_lists_every_unrun_statement():
    # simulates 2^24 amplitudes (about 290 MB), so it runs in a child that frees them at exit
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "traffic.py")], env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:]
