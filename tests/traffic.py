"""The statements of ``src/`` that no known traffic runs, found by a line trace.

    PYTHONPATH=src python tests/traffic.py

runs, under ``sys.settrace`` and in this one process:

* the items of the ``verify_large_d`` and ``simulate_register`` bench workloads, built by
  ``bench/workloads.py`` at seeds 0..9 and checked by its own checks;
* ``verify_all(2, 64)``;
* the demos, each stdout checked against its golden text;
* every CLI command recorded in ``tests/golden/``, each output checked against its record;
* ``quditswap simulate`` of the dense 6-op circuit ``QFT 1; CX 1 2; QFT 3; CZ 3 4; CXT 4 5;
  QFT 24`` at d = 2 on 2^24 amplitudes from the all-zero label (about 290 MB).

It then prints every statement of ``src/quditswap`` that none of them ran, by file, line and
enclosing function.  A statement is an ``ast`` statement or ``except`` clause; it ran when
a line of its own, not of a statement nested in it, ran.  It is not part of Tier-1.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quditswap"
DENSE_2_24 = "dim 2\nwires 24\nQFT 1\nCX 1 2\nQFT 3\nCZ 3 4\nCXT 4 5\nQFT 24\n"


def _quiet(run, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run(*args)
    return result, out.getvalue()


def traffic(tmp: Path) -> None:
    """Run every kind of traffic, raising if an output is wrong."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    import golden_set
    import workloads
    from quditswap import cli, verify_all

    for name, seeds in (("verify_large_d", [0]), ("simulate_register", range(10))):
        for seed in seeds:
            wl = workloads.build(name, seed, tmp / f"{name}-{seed}")
            for item in wl.items:
                if (why := wl.check(item, wl.run(item))) is not None:
                    raise SystemExit(f"{name} seed {seed}: {why}")
    if not all(r.passed for r in verify_all(2, 64)):
        raise SystemExit("verify_all(2, 64) failed a row")
    for demo in golden_set.DEMOS:
        _, text = _quiet(runpy.run_path, str(demo), None, "__main__")
        if text != golden_set.demo_text(demo).read_text(encoding="utf-8"):
            raise SystemExit(f"{demo.name}: stdout differs from its golden text")
    _, text = golden_set.run(golden_set.VERIFY_ARGV)
    if text != golden_set.VERIFY_TEXT.read_text(encoding="utf-8"):
        raise SystemExit("verify --json: stdout differs from its golden text")
    outputs = json.loads(golden_set.MANIFEST.read_text(encoding="utf-8"))["outputs"]
    for argv in golden_set.manifest_argvs():
        if golden_set.record(*golden_set.run(argv)) != outputs[" ".join(argv)]:
            raise SystemExit(f"{' '.join(argv)}: output differs from its record")
    qc = tmp / "dense_2_24.qc"
    qc.write_text(DENSE_2_24, encoding="utf-8")
    code, text = _quiet(cli.main, ["simulate", "--circuit", str(qc), "--input", ",".join("0" * 24)])
    if code != 0 or len(text.splitlines()) != 8:
        raise SystemExit(f"dense 2^24 simulate: exit {code}, {len(text.splitlines())} lines")


def statements(path: Path) -> list[tuple[int, set[int], str]]:
    """(first line, own lines, enclosing function) of each statement of a source file."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                start = min([child.lineno, *(x.lineno for x in getattr(child, "decorator_list", []))])
                nested = {i for sub in ast.iter_child_nodes(child)
                          if isinstance(sub, (ast.stmt, ast.ExceptHandler))
                          for i in range(sub.lineno, sub.end_lineno + 1)}
                own = set(range(start, child.end_lineno + 1)) - nested or {child.lineno}
                found.append((child.lineno, own, where))
            walk(child, child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where)
    walk(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def code_lines(path: Path) -> set[int]:
    """The lines that hold bytecode, in the module and every code object nested in it."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= {line for _, _, line in code.co_lines() if line is not None}
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main() -> int:
    ran: set[tuple[str, int]] = set()  # (file, line) of each line run in src/

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(lambda frame, *_: lines if frame.f_code.co_filename.startswith(str(SRC)) else None)
        try:
            traffic(Path(tmp))
        finally:
            sys.settrace(None)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text, code = path.read_text(encoding="utf-8").splitlines(), code_lines(path)
        for first, own, where in statements(path):
            if own & code and not {(str(path), i) for i in own} & ran:
                total += 1
                print(f"{path.relative_to(ROOT)}:{first}  {where}: {text[first - 1].strip()}")
    print(f"{total} statements of src/ that no traffic runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
