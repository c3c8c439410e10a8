"""Defects the tests are meant to catch, kept as an executable list.

Each entry is (name, file, exact old text, new text, test ids that must fail):
applied to a copy of the repository, the edit must make every listed test
fail.  ``tests/test_mutants.py`` checks in Tier-1 that each old text occurs
exactly once in its file and that pytest collects each listed test id, so
moving the code or renaming a test means updating this list.

    python tests/mutants.py [NAME ...]

applies each mutant (or the named ones) to a temporary copy of the
repository, runs only its test ids there, and prints killed or survived with
the time each took.  It exits 1 if any mutant survived.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "identity start writes only its nonzero entries",
        "src/quditswap/circuit.py",
        "np.copyto(blocks.reshape((d,) * k + (-1,) + (d,) * k), g.reshape((d,) * k + (1,) + (d,) * k))",
        "np.copyto(blocks.reshape((d,) * k + (-1,) + (d,) * k), g.reshape((d,) * k + (1,) + (d,) * k),"
        " where=g.reshape((d,) * k + (1,) + (d,) * k) != 0)",
        ("tests/test_oracles.py::test_blocks_start_from_memory_that_holds_junk",),
    ),
    Mutant(
        "phase multiply with its operands swapped",
        "src/quditswap/circuit.py",
        "np.multiply(ph, front.transpose(mem), out=front.transpose(mem))",
        "np.multiply(front.transpose(mem), ph, out=front.transpose(mem))",
        ("tests/test_oracles.py::test_run_matches_the_pingpong_kernel_bit_for_bit",
         "tests/test_circuit.py::test_circuit_unitary_order",
         "tests/test_golden.py::test_verify_json_keeps_its_golden_text"),
    ),
    Mutant(
        "a box's phases read from wire 1's first digits",
        "src/quditswap/circuit.py",
        "slice(lo, lo + h)",
        "slice(0, h)",
        ("tests/test_oracles.py::test_boxed_blocks_match_the_whole_array_bit_for_bit",
         "tests/test_oracles.py::test_blocks_of_the_in_place_kernel_match_the_pingpong_kernel",
         "tests/test_circuit.py::test_decomposition_reproduces_cx_tilde[32]",
         "tests/test_golden.py::test_verify_json_keeps_its_golden_text"),
    ),
    Mutant(
        "a box's phases cut on their first axis",
        "src/quditswap/circuit.py",
        "cut = (slice(None),) * wires.index(0) + (slice(lo, lo + h),) if 0 in wires else ()",
        "cut = (slice(lo, lo + h),) if 0 in wires else ()",
        ("tests/test_oracles.py::test_boxed_blocks_match_the_whole_array_bit_for_bit",),
    ),
    Mutant(
        "gate_matrix stores a patched gate under the unpatched builder's key",
        "src/quditswap/gates.py",
        "    return shared(_BUILDERS[kind], d)\n",
        "    built, key = GATE_SET.get(), (globals()[_BUILDERS[kind].__name__], d)\n"
        "    if built is not None and key not in built:\n"
        "        built[key] = _BUILDERS[kind](d)\n"
        "    return _BUILDERS[kind](d) if built is None else built[key]\n",
        ("tests/test_circuit.py::test_a_builder_patched_between_verify_all_calls_is_seen",),
    ),
    Mutant(
        "no GATE_SET reset when a row raises",
        "src/quditswap/verify.py",
        "        try:\n"
        "            reports += [verify_identity(name, d) for name in IDENTITIES]\n"
        "        finally:\n"
        "            GATE_SET.reset(token)\n",
        "        reports += [verify_identity(name, d) for name in IDENTITIES]\n"
        "        GATE_SET.reset(token)\n",
        ("tests/test_circuit.py::test_a_row_that_raises_leaves_no_gate_set_behind",),
    ),
    Mutant(
        "gate set keyed by builder name",
        "src/quditswap/gates.py",
        "built, key = GATE_SET.get(), (build, *args)",
        "built, key = GATE_SET.get(), (build.__name__, *args)",
        ("tests/test_circuit.py::test_a_builder_patched_between_verify_all_calls_is_seen",),
    ),
    Mutant(
        "a table on the kept wire 1 left in a box",
        "src/quditswap/circuit.py",
        "    split, pad = all(g.phases is not None for op, g in zip(c.ops, c.gates) if 1 in op.wires), 0\n",
        "    split, pad = 0 not in free, 0\n",
        ("tests/test_oracles.py::test_boxed_blocks_match_the_whole_array_bit_for_bit",
         "tests/test_oracles.py::test_a_kept_wire_1_runs_the_blocks_a_box_of_its_digits_at_a_time"),
    ),
    Mutant(
        "cli.main without MemoryError",
        "src/quditswap/cli.py",
        "except (ValueError, OSError, MemoryError) as exc:",
        "except (ValueError, OSError) as exc:",
        ("tests/test_cli.py::test_memory_exhaustion_is_an_error_line_and_exit_2",),
    ),
    Mutant(
        "_dense_rows returns a dense gate's whole matrix",
        "src/quditswap/core.py",
        "        return g.matrix[s]\n",
        "        return g.matrix\n",
        ("tests/test_oracles.py::test_matrix_output_is_batched_byte_for_byte[155]",
         "tests/test_oracles.py::test_matrix_output_is_batched_byte_for_byte[156]",
         "tests/test_oracles.py::test_matrix_output_is_batched_byte_for_byte[157]",
         "tests/test_oracles.py::test_dense_rows_of_every_form_match_the_oracle_bit_for_bit"),
    ),
    Mutant(
        "_load_state without the two-column check",
        "src/quditswap/cli.py",
        "            if pairs.shape[1] != 2:\n"
        "                raise ValueError(\"not two columns\")\n",
        "",
        ("tests/test_oracles.py::test_load_state_errors_match_oracle[four-columns]",
         "tests/test_oracles.py::test_load_state_errors_match_oracle[one-column]"),
    ),
    Mutant(
        "CXT's digit map with its target sign flipped",
        "src/quditswap/gates.py",
        "    return GateMatrix(perm=x * d + (-x - y) % d)\n",
        "    return GateMatrix(perm=x * d + (x + y) % d)\n",
        ("tests/test_gates.py::test_table_builds_match_the_oracle_tables[3]",
         "tests/test_gates.py::test_cx_tilde_mappings",
         "tests/test_golden.py::test_verify_json_keeps_its_golden_text"),
    ),
    Mutant(
        "X's map as +1",
        "src/quditswap/gates.py",
        "    return GateMatrix(perm=-np.arange(d) % d)\n",
        "    return GateMatrix(perm=np.arange(d) % d)\n",
        ("tests/test_gates.py::test_table_builds_match_the_oracle_tables[3]",
         "tests/test_gates.py::test_x_d_d3"),
    ),
    Mutant(
        "dense slab without its left pad",
        "src/quditswap/circuit.py",
        "        pad = 0 if g.perm is not None else (offset + lo) % 8"
        " or (8 if w == 1 and whole > 1 else 0)\n",
        "        pad = 0\n",
        ("tests/test_oracles.py::test_dense_slab_step_keeps_the_bits_of_the_whole_call",),
    ),
    Mutant(
        "a lone last column left to a matrix-vector product",
        "src/quditswap/circuit.py",
        "(offset + lo) % 8 or (8 if w == 1 and whole > 1 else 0)\n",
        "(offset + lo) % 8\n",
        ("tests/test_oracles.py::test_dense_boxes_of_a_whole_call_keep_its_bits",),
    ),
    Mutant(
        "interior dense slab not right-padded",
        "src/quditswap/circuit.py",
        "        end = pad + w if g.perm is not None or offset + lo + w == whole else"
        " -(-(pad + w) // 8) * 8\n",
        "        end = pad + w\n",
        ("tests/test_oracles.py::test_dense_slab_step_keeps_the_bits_of_the_whole_call",),
    ),
    Mutant(
        "slab cut inside the last partial panel",
        "src/quditswap/circuit.py",
        "cuts = [a for a in range(0, size, cap // tail) if a == 0 or (size - a) * tail >= 8]",
        "cuts = list(range(0, size, cap // tail))",
        ("tests/test_oracles.py::test_dense_slab_step_keeps_the_bits_of_the_whole_call",),
    ),
    Mutant(
        "op 0 written on the next wire",
        "src/quditswap/circuit.py",
        "np.copyto(blocks.reshape((d,) * k + (-1,) + (d,) * k), g.reshape((d,) * k + (1,) + (d,) * k))",
        "np.copyto(blocks.reshape((-1,) + (d,) * k + (d,) * k), g.reshape((1,) + (d,) * k + (d,) * k))",
        ("tests/test_oracles.py::test_op0_write_matches_the_identity_start",
         "tests/test_golden.py::test_verify_json_keeps_its_golden_text"),
    ),
    Mutant(
        "op 0 dropped: the identity written, op 0 skipped",
        "src/quditswap/circuit.py",
        "    g = c.gates[0].matrix if first else np.eye(d**k)\n",
        "    g = np.eye(d**k)\n",
        ("tests/test_oracles.py::test_op0_write_matches_the_identity_start",
         "tests/test_golden.py::test_verify_json_keeps_its_golden_text"),
    ),
    Mutant(
        "no gate set at all",
        "src/quditswap/verify.py",
        "        token = GATE_SET.set({})",
        "        token = GATE_SET.set(None)",
        ("tests/test_circuit.py::test_verify_all_builds_each_gate_kind_once_per_circuit",
         "tests/test_circuit.py::test_verify_all_takes_each_table_distance_once_per_d"),
    ),
    Mutant(
        "simulate output cut on the whole register",
        "src/quditswap/cli.py",
        "            idx = lo + np.flatnonzero(np.abs(out[lo:lo + _SLAB]) >= AMP_EPSILON)\n",
        "            idx = (lo + np.flatnonzero(np.abs(out) >= AMP_EPSILON))[lo:lo + _SLAB]\n",
        ("tests/test_oracles.py::test_simulate_label_run_holds_its_state_and_slab_buffers",),
    ),
    Mutant(
        "box buffers over 128 KiB",
        "src/quditswap/circuit.py",
        "_BOX = 8000\n",
        "_BOX = 2**15\n",
        ("tests/test_verify.py::test_the_first_pass_at_a_larger_d_faults_in_few_pages",
         "tests/test_verify.py::test_verify_all_faults_in_no_pages_while_the_caller_holds_arrays",
         "tests/test_oracles.py::test_decomposition_distance_allocates_a_box_and_buffers"
         "_under_128_kib[64]"),
    ),
    Mutant(
        "delta sum in one chunk",
        "src/quditswap/verify.py",
        "k, worst, rows = np.arange(d), 0.0, max(1, _BOX // 4 // d)",
        "k, worst, rows = np.arange(d), 0.0, 3 * d",
        ("tests/test_verify.py::test_verify_all_faults_in_no_pages_while_the_caller_holds_arrays",),
    ),
    Mutant(
        "boxed dense op placed at column 0 of its whole call",
        "src/quditswap/circuit.py",
        "            _apply(g, front, k, lo * cols // h, d * cols // h)\n",
        "            _apply(g, front, k, 0, cols)\n",
        ("tests/test_oracles.py::test_boxed_blocks_match_the_whole_array_bit_for_bit",),
    ),
    Mutant(
        "OpenBLAS buffer mapped after the register",
        "src/quditswap/cli.py",
        "        np.ones((2, 2), complex) @ np.ones((2, 8), complex)\n",
        "        pass\n",
        ("tests/test_cli.py::test_openblas_buffer_is_mapped_before_the_register",),
    ),
    Mutant(
        "finiteness checked on the whole register",
        "src/quditswap/core.py",
        "            finite = np.isfinite(amps[lo:lo + _SLAB])\n",
        "            finite = np.isfinite(amps)[lo:lo + _SLAB]\n",
        ("tests/test_core.py::test_finiteness_check_holds_one_slab_of_bools",),
    ),
]


def _copy(dest: Path) -> None:
    for name in ("src", "tests", "demos", "pytest.ini"):
        path = ROOT / name
        if path.is_dir():
            shutil.copytree(path, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(path, dest / name)


def run(m: Mutant) -> tuple[bool, float, str]:
    """(killed, seconds, pytest's summary line): killed when every listed test fails."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / m.file
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            raise ValueError(f"{m.name}: the old text does not occur once in {m.file}")
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *m.tests],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (\w+)", summary)
              if not word.startswith("warning")}
    killed = counts == {"failed": len(m.tests)}
    return killed, time.perf_counter() - start, summary


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survived = 0
    print(f"{'mutant':<70} {'result':<9} {'s':>6}  pytest")
    for m in chosen:
        killed, seconds, summary = run(m)
        survived += not killed
        print(f"{m.name:<70} {'killed' if killed else 'SURVIVED':<9} {seconds:6.1f}  {summary}",
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
