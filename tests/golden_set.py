"""The golden outputs of ``quditswap``: the bytes each output must keep.

    PYTHONPATH=src python tests/golden_set.py

writes ``tests/golden/``:

* ``verify_json.txt``: the full stdout of ``quditswap verify --json --d-min 2
  --d-max 64``;
* ``demos/<demo>.txt``: each demo's stdout;
* ``manifest.json``: the exit code, the sha256 and a short digest of each line
  of every ``matrix`` output (the ten mnemonics at d = 2, 3, 7 and 16, csv and
  json) and of ``simulate`` text and ``--json`` on the circuits and amplitude
  files in ``golden/inputs``, with the environment the float outputs depend
  on: numpy, its BLAS, the OpenBLAS core (the kernel set it picked at load),
  and the CPU features numpy dispatches on.

``tests/test_golden.py`` and ``tests/test_demos.py`` regenerate the set and
compare.  Regenerate it only when an output is meant to change, and record
what moved and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from quditswap import cli
from quditswap.dsl import MNEMONICS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"
VERIFY_TEXT = GOLDEN / "verify_json.txt"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
VERIFY_ARGV = ["verify", "--json", "--d-min", "2", "--d-max", "64"]

# (circuit, input flag, value): table, phase and dense circuits at odd and even d,
# from basis labels and from amplitude files read by numpy's parser (spaces,
# tabs, comments) and by the line reader (commas, 1_0)
SIMULATE_CASES = [
    ("swap_d3.qc", "--input", "1,2"),
    ("tables_d4.qc", "--input", "3,0,2"),
    ("tables_d4.qc", "--state", "plain_d4n3.txt"),
    ("phase_d5.qc", "--input", "2,3"),
    ("phase_d2.qc", "--state", "underscore_d2n2.txt"),
    ("decomposition_d4.qc", "--input", "1,3"),
    ("decomposition_d6.qc", "--input", "5,4"),
    ("dense_d3.qc", "--input", "0,1,2"),
    ("dense_d7.qc", "--state", "tabs_d7n2.txt"),
    ("mixed_d2.qc", "--state", "comments_d2n3.txt"),
    ("swap_d3.qc", "--state", "commas_d3n2.txt"),
    ("wide_d2.qc", "--input", "1,0,1,0,1,0,1,0,1,0"),  # a dense op on 3 of 10 wires
    ("id_d2.qc", "--state", "edges_d2n2.txt"),  # signed zeros, subnormals, the 1e-12 cut
]


def manifest_argvs() -> list[list[str]]:
    """The argv of every output the manifest records; file names are in ``INPUTS``."""
    argvs = [["matrix", "--gate", m, "--d", str(d), "--format", fmt]
             for m in MNEMONICS for d in (2, 3, 7, 16) for fmt in ("csv", "json")]
    return argvs + [["simulate", "--circuit", qc, flag, value, *extra]
                    for qc, flag, value in SIMULATE_CASES for extra in ([], ["--json"])]


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of ``quditswap *argv`` in this process."""
    argv = [str(INPUTS / a) if flag in ("--circuit", "--state") else a
            for flag, a in zip([None, *argv], argv)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=env)


def demo_text(demo: Path) -> Path:
    return GOLDEN / "demos" / f"{demo.stem}.txt"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(code: int, text: str) -> dict:
    """What the manifest keeps of an output: its exit code, sha256 and 8 hex digits a line."""
    lines = text.splitlines(keepends=True)
    return {"exit": code, "sha256": _sha(text), "lines": "".join(_sha(s)[:8] for s in lines)}


def first_difference(got: str, want: str) -> str | None:
    """Where ``got`` first parts from ``want``, as 'line N: got ... , recorded ...'; None if equal."""
    if got == want:
        return None
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return (f"line {i + 1}: got {a[i] if i < len(a) else '<end>'!r}, "
            f"recorded {b[i] if i < len(b) else '<end>'!r}")


def first_record_difference(text: str, got: dict, want: dict) -> str:
    """Where a regenerated output parts from its manifest record, by exit code or line digest."""
    if got["exit"] != want["exit"]:
        return f"exit {got['exit']}, recorded {want['exit']}"
    a, b = got["lines"], want["lines"]
    i = next((i for i in range(0, min(len(a), len(b)), 8) if a[i:i + 8] != b[i:i + 8]),
             min(len(a), len(b))) // 8
    lines = text.splitlines(keepends=True)
    return (f"line {i + 1} differs: got {lines[i] if i < len(lines) else '<end>'!r} "
            f"(the recorded output has {len(b) // 8} lines)")


def openblas_core() -> str | None:
    """The kernel set numpy's OpenBLAS picked when it loaded (by CPU, or ``OPENBLAS_CORETYPE``).

    The function is looked up by name in numpy's extension module, whose dependencies include
    the OpenBLAS it loaded; None if that BLAS does not export it.
    """
    from numpy._core import _multiarray_umath as umath

    name = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_corename64_", None)
    if name is None:
        return None
    name.restype = ctypes.c_char_p
    return name().decode()


def environment() -> dict:
    """The numpy version, its BLAS and the kernels OpenBLAS picked, and the CPU features numpy's
    kernels dispatch on."""
    from numpy._core import _multiarray_umath as umath

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "openblas_core": openblas_core(),
            "cpu_features": dict(umath.__cpu_features__),
            "cpu_dispatch": list(umath.__cpu_dispatch__)}


def environment_note(recorded: dict) -> str:
    now = environment()
    moved = [k for k in sorted(now.keys() | recorded.keys()) if now.get(k) != recorded.get(k)]
    return ("the environment is the recorded one" if not moved
            else f"the environment differs from the recorded one in: {', '.join(moved)}")


def main() -> None:
    code, text = run(VERIFY_ARGV)
    if code != 0:
        raise SystemExit(f"{' '.join(VERIFY_ARGV)} exited {code}")
    VERIFY_TEXT.write_text(text, encoding="utf-8")
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0:
            raise SystemExit(f"{demo.name} exited {proc.returncode}:\n{proc.stderr}")
        demo_text(demo).write_text(proc.stdout, encoding="utf-8")
    outputs = {" ".join(argv): record(*run(argv)) for argv in manifest_argvs()}
    MANIFEST.write_text(json.dumps({"environment": environment(), "outputs": outputs},
                                   indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
