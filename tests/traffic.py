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
enclosing function, with the reason ``UNRUN`` gives for keeping it.  A statement is an ``ast``
statement or ``except`` clause; it ran when a line of its own, not of a statement nested in
it, ran.  It exits 1 when an unrun statement is not in ``UNRUN``, or when a statement listed
there now runs: code that only tests reach needs a reason, and a stale reason goes.  A
statement is known by its code, not its comments (see ``statements``), so rewording a comment
changes nothing here.  ``tests/test_traffic.py`` runs it in Tier-1, in a child process.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import io
import json
import runpy
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quditswap"
DENSE_2_24 = "dim 2\nwires 24\nQFT 1\nCX 1 2\nQFT 3\nCZ 3 4\nCXT 4 5\nQFT 24\n"

# Every statement of src/ that no traffic runs, as (file, enclosing function, code, as
# ``statements`` gives it), with the reason it stays: an error raised on outside input; "api:" API
# generality that a named test pins; or "outside:" north-star traffic the bench does not send.
INPUT = "input: an error raised on outside input"
UNRUN = [
    ("circuit.py", "__post_init__", 'raise ValueError(f"duplicate wires in {wires}")', INPUT),
    ("circuit.py", "__post_init__", 'raise ValueError(f"wires are 1-based, got {wires}")', INPUT),
    ("circuit.py", "__post_init__", 'raise ValueError(f"wire count must be >= 1, got {self.n}")',
     INPUT),
    ("circuit.py", "__post_init__",
     'raise ValueError(f"wire out of range in {op.wires} for n={self.n}")',
     INPUT),
    ("circuit.py", "_moved", "return tuple(bool((x[g.perm] != x).any()) for x in digits)",
     "api: tests/test_oracles.py::test_a_kept_wire_1_runs_the_blocks_a_box_of_its_digits_at_a_time"),
    ("circuit.py", "circuit_unitary",
     "return GateMatrix(phases=np.concatenate([t.flatten() for _, t in boxes]))",
     "api: tests/test_oracles.py::test_phase_circuit_unitary_is_phases"),
    ("circuit.py", "table_dist",
     'raise DimensionError(f"expected a permutation table on {d**n} labels")',
     INPUT),
    ("circuit.py", "simulate",
     'raise DimensionError(f"state ({s.d}, {s.n}) does not match circuit ({c.d}, {c.n})")',
     INPUT),
    ("cli.py", "cmd_verify", "except ValueError as exc:", INPUT),
    ("cli.py", "cmd_verify",
     'raise ValueError(f"--d-min {args.d_min} --d-max {args.d_max}: {exc}") from None',
     INPUT),
    ("cli.py", "cmd_verify",
     'raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")',
     INPUT),
    ("cli.py", "cmd_verify",
     "reports = [dataclasses.replace(r, tolerance=abs(args.tolerance)) for r in reports]",
     "api: tests/test_cli.py::test_verify_tolerance_override_can_fail"),
    ("cli.py", "cmd_verify",
     'print(f"{r.identity_name:<16} d={r.d:<3} max_dev={r.max_dev:.3e} " '
     'f"tol={r.tolerance:.1e} {\'PASS\' if r.passed else \'FAIL\'}")',
     "outside: the text report of `quditswap verify`, tests/test_cli.py::test_verify_pass"),
    ("cli.py", "cmd_matrix", 'raise ValueError(f"unknown gate mnemonic {args.gate!r}")', INPUT),
    ("cli.py", "_read_lines", "continue",
     "api: tests/test_oracles.py::test_load_state_matches_oracle_on_drawn_text"),
    ("cli.py", "_read_lines", 'raise ValueError(f"expected \'re im\' per line, got {raw!r}")', INPUT),
    ("cli.py", "_load_state", 'raise ValueError("not two columns")', INPUT),
    ("cli.py", "cmd_simulate", 'raise ValueError("exactly one of --input / --state is required")',
     INPUT),
    ("cli.py", "cmd_simulate", 'raise ValueError(f"expected {circ.n} digits, got {len(digits)}")',
     INPUT),
    ("cli.py", "cmd_parse", "sys.stdout.write(render(_read_circuit(args.circuit)))",
     "outside: `quditswap parse`, tests/test_cli.py::test_parse_canonicalizes"),
    ("cli.py", "cmd_parse", "return 0",
     "outside: `quditswap parse`, tests/test_cli.py::test_parse_canonicalizes"),
    ("cli.py", "main", "except ParseError as exc:", INPUT),
    ("cli.py", "main", 'print(f"parse error: {exc}", file=sys.stderr)', INPUT),
    ("cli.py", "main",
     "except (ValueError, OSError, MemoryError) as exc:", INPUT),
    ("cli.py", "main",
     "if isinstance(exc, BrokenPipeError):", INPUT),
    ("cli.py", "main", 'with open(os.devnull, "w") as null, contextlib.suppress(OSError):', INPUT),
    ("cli.py", "main", "os.dup2(null.fileno(), sys.stdout.fileno())", INPUT),
    ("cli.py", "main", 'print(f"error: {exc}", file=sys.stderr)', INPUT),
    ("cli.py", "main", "return 2", INPUT),
    ("cli.py", "<module>", "sys.exit(main())",
     "outside: run as a script, tests/test_acceptance.py::test_criterion_12_cli_end_to_end"),
    ("core.py", "_check_dim", 'raise DimensionError(f"qudit dimension must be >= 2, got {d}")', INPUT),
    ("core.py", "_check_budget",
     'raise DimensionError(f"an array of {d}^{k} entries exceeds budget {MAX_ENTRIES}")',
     INPUT),
    ("core.py", "__post_init__",
     'raise DimensionError( f"expected {self.d ** self.n} amplitudes, got {amps.shape}" )', INPUT),
    ("core.py", "__post_init__",
     'raise ValueError(f"non-finite amplitude at index {lo + np.flatnonzero(~finite)[0]}")',
     INPUT),
    ("core.py", "_is_bijection", "return False", INPUT),
    ("core.py", "__post_init__", 'raise ValueError("perm table is not a bijection")', INPUT),
    ("core.py", "__post_init__", 'raise DimensionError(f"phases must be a vector, got {phases.shape}")',
     INPUT),
    ("core.py", "__post_init__", 'raise DimensionError(f"gate matrix must be square, got {m.shape}")',
     INPUT),
    ("core.py", "__post_init__", 'raise ValueError("a gate needs exactly one of matrix, perm, phases")',
     INPUT),
    ("core.py", "__post_init__", 'raise ValueError("non-finite matrix entry")', INPUT),
    ("core.py", "entries", "return _dense_rows(self, slice(None))",
     "api: README names it; tests/test_oracles.py::test_gate_forms_match_oracle"),
    ("core.py", "dagger", "return GateMatrix(perm=np.argsort(self.perm))",
     "api: `GateMatrix.dagger` of a table, tests/test_core.py::test_x_d_dagger_inverts_perm"),
    ("core.py", "dagger", "return GateMatrix(phases=self.phases.conj())",
     "api: `GateMatrix.dagger` of phases, tests/test_oracles.py::test_gate_forms_match_oracle"),
    ("core.py", "_check_digits", 'raise ValueError(f"digit {x} out of range for d={d}")', INPUT),
    ("core.py", "max_entry_dist", 'raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")',
     INPUT),
    ("core.py", "max_entry_dist", "return float(np.max(np.abs(a.entries - b.entries)))",
     "api: `max_entry_dist` of two dense gates, tests/test_core.py::test_max_entry_dist_examples"),
    ("dsl.py", "__str__", 'return f"{where}: {self.message}"', INPUT),
    ("dsl.py", "_int_token", "except ValueError:", INPUT),
    ("dsl.py", "_int_token", 'raise ParseError(lineno, col, f"expected integer {what}", tok) from None',
     INPUT),
    ("dsl.py", "parse", 'raise ParseError(lineno, col, "\'wires\' before \'dim\' header", head)',
     INPUT),
    ("dsl.py", "parse", 'raise ParseError(lineno, col, f"duplicate \'{head}\' header", head)', INPUT),
    ("dsl.py", "parse", 'raise ParseError(lineno, col, f"\'{head}\' takes exactly one integer", head)',
     INPUT),
    ("dsl.py", "parse", 'raise ParseError(lineno, vcol, f"{what} must be >= {least}", tok)', INPUT),
    ("dsl.py", "parse", 'raise ParseError(lineno, col, "gate before \'dim\'/\'wires\' headers", head)',
     INPUT),
    ("dsl.py", "parse", 'raise ParseError(lineno, col, "unknown gate mnemonic", head)', INPUT),
    ("dsl.py", "parse", 'raise ParseError(lineno, wcol, f"wire out of range 1..{n}", tok)', INPUT),
    ("dsl.py", "parse", 'raise ParseError(max(len(lines), 1), 1, "missing \'dim\' header")', INPUT),
    ("dsl.py", "parse", 'raise ParseError(max(len(lines), 1), 1, "missing \'wires\' header")', INPUT),
    ("verify.py", "verify_identity",
     'raise ValueError(f"unknown identity {name!r}; known: {\', \'.join(IDENTITIES)}")',
     INPUT),
    ("verify.py", "check_d_range", 'raise DimensionError(f"d must be in 2..64, got {d}")', INPUT),
    ("verify.py", "check_d_range", 'raise DimensionError(f"empty d range {d_min}..{d_max}")', INPUT),
]


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


def statements(source: str) -> list[tuple[int, set[int], str, str]]:
    """(first line, own lines, enclosing function, code) of each statement of a source file.

    The code is the statement's own lines with their comments cut, each stripped, joined by
    a space: a comment added or reworded leaves it as it is.
    """
    lines = source.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                start = min([child.lineno, *(x.lineno for x in getattr(child, "decorator_list", []))])
                nested = {i for sub in ast.iter_child_nodes(child)
                          if isinstance(sub, (ast.stmt, ast.ExceptHandler))
                          for i in range(sub.lineno, sub.end_lineno + 1)}
                own = set(range(start, child.end_lineno + 1)) - nested or {child.lineno}
                code = " ".join(filter(None, (lines[i - 1].strip() for i in sorted(own))))
                found.append((child.lineno, own, where, code))
            walk(child, child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where)
    walk(ast.parse(source), "<module>")
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
    listed = collections.Counter(e[:3] for e in UNRUN)
    reasons = {e[:3]: e[3] for e in UNRUN}
    unlisted = total = 0
    for path in sorted(SRC.glob("*.py")):
        code = code_lines(path)
        for first, own, where, text in statements(path.read_text(encoding="utf-8")):
            if own & code and not {(str(path), i) for i in own} & ran:
                key, total = (path.name, where, text), total + 1
                why = reasons[key] if listed[key] > 0 else "NOT LISTED"
                unlisted += why == "NOT LISTED"
                listed[key] = max(listed[key] - 1, 0)
                print(f"{path.relative_to(ROOT)}:{first}  {where}: {key[2]}  [{why}]")
    for (name, where, line), left in listed.items():
        for _ in range(left):
            print(f"runs now, still listed: {name} {where}: {line}")
    stale = sum(listed.values())
    print(f"{total} statements of src/ that no traffic runs; {unlisted} not listed, "
          f"{stale} listed that ran")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
