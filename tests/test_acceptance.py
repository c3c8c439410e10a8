"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import random
import subprocess
import sys
import time

import numpy as np
import pytest

from quditswap.circuit import (
    Circuit,
    GateOp,
    asymmetric_swap_circuit,
    circuit_unitary,
    cx_tilde_decomposition,
    cx_tilde_decomposition_alt,
    expand_cx_tilde,
    partial_swap_circuit,
    simulate,
    swap_circuit,
    swap_circuit_alt,
)
from quditswap.core import StateVector, max_entry_dist
from quditswap.dsl import ParseError, parse, render
from quditswap.gates import GateKind, cx_tilde, identity_gate, swap_ref


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_swap_identity_exact():
    start = time.perf_counter()
    worst = max(
        max_entry_dist(circuit_unitary(swap_circuit(d)), swap_ref(d))
        for d in range(2, 17)
    )
    elapsed = time.perf_counter() - start
    report(
        "1 SWAP identity, d=2..16, deviation 0",
        worst == 0 and elapsed < 1.0,
        f"max_dev={worst}, {elapsed:.2f}s",
    )


def test_criterion_02_reflected_swap_exact():
    worst = max(
        max_entry_dist(circuit_unitary(swap_circuit_alt(d)), swap_ref(d))
        for d in range(2, 17)
    )
    report("2 reflected SWAP, d=2..16, deviation 0", worst == 0, f"max_dev={worst}")


def test_criterion_03_decomposition_identity():
    start = time.perf_counter()
    worst = 0.0
    for d in range(2, 33):
        target = cx_tilde(d)
        worst = max(
            worst,
            max_entry_dist(circuit_unitary(cx_tilde_decomposition(d)), target),
            max_entry_dist(circuit_unitary(cx_tilde_decomposition_alt(d)), target),
        )
    elapsed = time.perf_counter() - start
    report(
        "3 QFT/CZ decompositions, d=2..32, <= 1e-10",
        worst <= 1e-10 and elapsed < 5.0,
        f"max_dev={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_nine_gate_swap():
    worst = max(
        max_entry_dist(circuit_unitary(expand_cx_tilde(swap_circuit(d))), swap_ref(d))
        for d in range(2, 17)
    )
    report("4 nine-gate SWAP, d=2..16, <= 1e-9", worst <= 1e-9, f"max_dev={worst:.2e}")


def test_criterion_05_self_inverse():
    worst_perm = 0.0
    worst_dense = 0.0
    for d in range(2, 33):
        perm_sq = circuit_unitary(Circuit(d, 2, (GateOp(GateKind.CXTilde, (1, 2)),) * 2))
        worst_perm = max(worst_perm, max_entry_dist(perm_sq, identity_gate(d, 2)))
        ops = cx_tilde_decomposition(d).ops
        dense_sq = circuit_unitary(Circuit(d, 2, ops + ops))
        worst_dense = max(worst_dense, max_entry_dist(dense_sq, identity_gate(d, 2)))
    report(
        "5 self-inverse, d=2..32, perm exact / dense <= 1e-10",
        worst_perm == 0 and worst_dense <= 1e-10,
        f"perm={worst_perm}, dense={worst_dense:.2e}",
    )


def test_criterion_06_cnot_degeneration():
    cnot = np.zeros((4, 4), dtype=complex)
    cnot[0, 0] = cnot[1, 1] = cnot[3, 2] = cnot[2, 3] = 1
    ok = np.array_equal(cx_tilde(2).entries, cnot)
    report("6 negated-sum gate at d=2 is CNOT, exact", ok)


def test_criterion_07_geometric_sum_delta():
    worst_rel = 0.0
    for d in (2, 3, 5, 8, 12):
        for x in range(d):
            for y in range(d):
                for l in range(d):
                    total = sum(
                        np.exp(2j * np.pi * (x + y + l) * k / d) for k in range(d)
                    )
                    expected = d if (x + y + l) % d == 0 else 0
                    worst_rel = max(worst_rel, abs(total - expected) / d)
    report(
        "7 geometric-sum delta, d in {2,3,5,8,12}, <= 1e-9*d",
        worst_rel <= 1e-9,
        f"max_dev/d={worst_rel:.2e}",
    )


def test_criterion_08_asymmetric_swap_exact():
    worst = max(
        max_entry_dist(circuit_unitary(asymmetric_swap_circuit(d)), swap_ref(d))
        for d in range(2, 17)
    )
    report("8 adder/subtractor/complement SWAP, d=2..16, deviation 0", worst == 0,
           f"max_dev={worst}")


def test_criterion_09_partial_swap():
    rng = np.random.default_rng(42)
    worst = 0.0
    for d in (2, 3, 5):
        circ = partial_swap_circuit(d)
        for _ in range(100):
            phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            phi /= np.linalg.norm(phi)
            amps = np.zeros(d * d, dtype=complex)
            amps[::d] = phi
            out = simulate(circ, StateVector(d, 2, amps))
            expected = np.zeros(d * d, dtype=complex)
            expected[:d] = phi
            worst = max(worst, float(np.max(np.abs(out.amps - expected))))
    not_a_swap = max_entry_dist(circuit_unitary(partial_swap_circuit(3)), swap_ref(3))
    report(
        "9 partial swap |phi>|0> -> |0>|phi> and not a full SWAP",
        worst <= 1e-10 and not_a_swap > 0.5,
        f"max_dev={worst:.2e}, full-swap dev={not_a_swap:.2f}",
    )


def test_criterion_10_superposition_linearity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for d in (2, 3, 4, 5, 8):
        circ = swap_circuit(d)
        transpose = [y * d + x for x in range(d) for y in range(d)]
        for _ in range(100):
            amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            amps /= np.linalg.norm(amps)
            out = simulate(circ, StateVector(d, 2, amps))
            worst = max(worst, float(np.max(np.abs(out.amps - amps[transpose]))))
    report(
        "10 random two-qudit states transpose under SWAP, <= 1e-10",
        worst <= 1e-10,
        f"max_dev={worst:.2e}",
    )


MALFORMED = [
    "",
    "wires 2\n",
    "dim 3\n",
    "dim 3\ndim 4\nwires 2\n",
    "dim 3\nwires 2\nwires 2\n",
    "dim 1\nwires 2\n",
    "dim x\nwires 2\n",
    "dim 3\nwires zero\n",
    "dim 3\nwires 0\n",
    "dim 3 4\nwires 2\n",
    "dim 3\nwires 2 2\n",
    "CXT 1 2\ndim 3\nwires 2\n",
    "dim 3\nwires 2\nBOGUS 1 2\n",
    "dim 3\nwires 2\nCXT 1\n",
    "dim 3\nwires 2\nQFT 1 2\n",
    "dim 3\nwires 2\nCXT 1 3\n",
    "dim 3\nwires 2\nCXT 0 1\n",
    "dim 3\nwires 2\nCXT 1 1\n",
    "dim 3\nwires 2\nCXT 1 two\n",
    "dim 3\nwires 2\nCZ 1 2 1\n",
]


def test_criterion_11_dsl_round_trip():
    rng = random.Random(2024)
    kinds = list(GateKind)
    ok = True
    for _ in range(1000):
        d = rng.randint(2, 12)
        n = rng.randint(2, 4)
        ops = []
        for _ in range(rng.randint(0, 10)):
            kind = rng.choice(kinds)
            wires = tuple(rng.sample(range(1, n + 1), kind.arity))
            ops.append(GateOp(kind, wires))
        c = Circuit(d, n, tuple(ops))
        if parse(render(c)) != c:
            ok = False
            break
    positioned = 0
    for text in MALFORMED:
        try:
            parse(text)
        except ParseError as exc:
            if exc.line >= 1 and exc.column >= 1:
                positioned += 1
    report(
        "11 DSL: 1000 round-trips, 20 positioned parse errors",
        ok and positioned == len(MALFORMED) == 20,
        f"round_trip={ok}, errors={positioned}/20",
    )


def test_criterion_12_cli_end_to_end():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "quditswap.cli", "verify", "--d-min", "2", "--d-max", "16"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    report(
        "12 CLI verify --d-min 2 --d-max 16 exits 0 in < 30 s",
        proc.returncode == 0 and elapsed < 30.0,
        f"exit={proc.returncode}, {elapsed:.1f}s",
    )
