"""The fast gate forms and the wire-axis kernel against the slow oracles."""

import contextlib
import io
import json
import os
import re
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from probes import peak_bytes, rss_over_import
from quditswap import circuit, cli, gates
from quditswap.circuit import (
    _SLAB,
    Circuit,
    GateOp,
    _apply,
    _blocks,
    _run,
    asymmetric_swap_circuit,
    circuit_unitary,
    cx_tilde_decomposition,
    cx_tilde_decomposition_alt,
    expand_cx_tilde,
    gate_matrix,
    simulate,
    swap_circuit,
    swap_circuit_alt,
    table_dist,
)
from quditswap.core import (
    DimensionError,
    GateMatrix,
    StateVector,
    _dense_rows,
    basis_state,
    max_entry_dist,
)
from quditswap.dsl import MNEMONICS, render
from quditswap.gates import GateKind, cx_tilde, cz_d, cz_d_dag, identity_gate, qft, swap_ref
from quditswap.verify import IDENTITIES, verify_all, verify_identity

KINDS = list(GateKind)
PERM_KINDS = [k for k in KINDS if oracles.perm_table(k, 2) is not None]


@st.composite
def circuits_on(draw, d, n, kinds=KINDS):
    kinds = [k for k in kinds if k.arity <= n]
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        wires = draw(st.permutations(range(1, n + 1)))[: kind.arity]
        ops.append(GateOp(kind, tuple(wires)))
    return Circuit(d, n, tuple(ops))


@st.composite
def circuits(draw):
    return draw(circuits_on(draw(st.integers(2, 5)), draw(st.integers(1, 4))))


def _random_amps(seed, size):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


@settings(deadline=None, max_examples=60)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_simulate_matches_oracle(c, seed):
    amps = _random_amps(seed, c.d**c.n)
    got = simulate(c, StateVector(c.d, c.n, amps)).amps
    assert np.max(np.abs(got - oracles.simulate(c, amps))) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(circuits())
def test_circuit_unitary_matches_oracle_product(c):
    u = circuit_unitary(c)
    want = oracles.unitary(c)
    assert np.max(np.abs(u.entries - want)) <= 1e-12
    if all(gate_matrix(op.kind, c.d).perm is not None for op in c.ops):
        assert u.perm is not None
        assert np.array_equal(u.entries, want)


@settings(deadline=None, max_examples=150)
@given(circuits(), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(Circuit(3, 3, (GateOp(GateKind.QFT, (2,)), GateOp(GateKind.CZd, (3, 2)),
                        GateOp(GateKind.QFT, (2,)), GateOp(GateKind.CXd, (3, 1)),
                        GateOp(GateKind.CXd, (3, 1)), GateOp(GateKind.IQFT, (1,)))),
         2, 0)
@example(Circuit(2, 4, (GateOp(GateKind.SWAP, (4, 1)), GateOp(GateKind.CXTilde, (4, 1)),
                        GateOp(GateKind.Xd, (1,)), GateOp(GateKind.CXdDag, (2, 1)))),
         3, 1)
def test_run_in_place_matches_oracle_product(c, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c.d**c.n, cols)) + 1j * rng.standard_normal((c.d**c.n, cols))
    want = oracles.unitary(c) @ x
    got = _run(c, x.copy()).reshape(want.shape)
    assert got.shape == want.shape
    if all(oracles.perm_table(op.kind, c.d) is not None for op in c.ops):
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12


@st.composite
def kernel_cases(draw):
    """A circuit of tables, phase gates and dense ops on d 2..9 and n 1..4 wires,
    the op the run starts from, and an input laid out in a drawn axis order."""
    d = draw(st.integers(2, 9))
    n = draw(st.integers(1, 4))
    c = draw(circuits_on(d, n))
    first = draw(st.integers(0, len(c.ops)))
    shape = (d,) * n + (draw(st.integers(1, 3)),)
    axes = draw(st.permutations(range(n + 1)))  # memory order of the label and column axes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = [shape[a] for a in axes]
    x = rng.standard_normal(stored) + 1j * rng.standard_normal(stored)
    return c, first, x, sorted(range(n + 1), key=axes.__getitem__)


@settings(deadline=None, max_examples=200)
@given(kernel_cases())
@example((cx_tilde_decomposition(9), 1, np.ones((9, 9, 3)) * (1 - 0.5j), [1, 0, 2]))
@example((Circuit(3, 3, (GateOp(GateKind.CZd, (3, 1)), GateOp(GateKind.QFT, (2,)),
                         GateOp(GateKind.CXd, (2, 3)), GateOp(GateKind.CZdDag, (1, 2)))),
          0, np.arange(54.0).reshape(2, 3, 3, 3) * (0.5 + 1j), [1, 2, 3, 0]))
def test_run_matches_the_pingpong_kernel_bit_for_bit(case):
    c, first, x, back = case
    got = _run(c, x.copy().transpose(back), first=first)
    want = oracles.pingpong_run(c, x.copy().transpose(back), first)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def _bits(a: np.ndarray) -> np.ndarray:
    """An array's words in label order: int64 for complex, so that a zero's sign counts."""
    a = np.ascontiguousarray(a)
    return a.view(np.int64) if a.dtype == np.complex128 else a


@st.composite
def slab_runs(draw):
    """A circuit of the ten kinds at d 2..7, a slab size, and an input on d^n amplitudes,
    half of them within a slab and half over it, up to 8 slabs: a basis label, random
    amplitudes, or the label table a circuit of tables runs on."""
    slab = draw(st.sampled_from([2**8, 2**11, _SLAB]))
    d = draw(st.integers(2, 7))
    over = next(k for k in range(1, 30) if d**k > slab)  # the fewest wires over a slab
    most = next(k for k in range(over, 30) if d ** (k + 1) > 8 * slab)
    n = draw(st.integers(over, most) if draw(st.booleans()) else st.integers(1, over - 1))
    c = draw(circuits_on(d, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    how = draw(st.sampled_from(["label", "amplitudes", "table"]))
    if how == "table" and all(g.perm is not None for g in c.gates):
        x = np.arange(d**n)
    elif how == "amplitudes":
        x = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    else:
        x = basis_state(tuple(rng.integers(0, d, n)), d).amps.copy()
    return c, slab, x


@settings(deadline=None, max_examples=80)
@given(slab_runs())
@example((Circuit(3, 7, (GateOp(GateKind.QFT, (5,)), GateOp(GateKind.CZd, (2, 5)),
                         GateOp(GateKind.CXTilde, (6, 1)), GateOp(GateKind.IQFT, (1,)))),
          2**8, np.arange(3.0**7) * (1 - 0.5j)))
def test_in_place_kernel_matches_the_pingpong_kernel_bit_for_bit(case):
    c, slab, x = case
    with mock.patch.object(circuit, "_SLAB", slab):
        got = _run(c, x.copy())
    assert np.array_equal(_bits(got), _bits(oracles.pingpong_run(c, x.copy())))


@st.composite
def kept_wire_circuits(draw):
    """A circuit at d 2..64 that changes one wire's digit at most, on n wires with
    d^(n+1) <= 2^18: dense, phase and table ops alike."""
    d = draw(st.integers(2, 64))
    n = draw(st.integers(2, next(k for k in (4, 3, 2) if d ** (k + 1) <= 2**18)))
    w = draw(st.integers(1, n))
    others = [v for v in range(1, n + 1) if v != w]
    ops = []
    # not SWAP, which changes two digits
    for kind in draw(st.lists(st.sampled_from([k for k in KINDS if k is not GateKind.SWAP]),
                              min_size=1, max_size=6)):
        if kind.arity == 1:
            ops.append(GateOp(kind, (w,)))
        elif kind in (GateKind.CZd, GateKind.CZdDag, GateKind.Identity):
            ops.append(GateOp(kind, tuple(draw(st.permutations(range(1, n + 1)))[:2])))
        else:  # a controlled adder changes its target's digit alone
            ops.append(GateOp(kind, (draw(st.sampled_from(others)), w)))
    return Circuit(d, n, tuple(ops))


@settings(deadline=None, max_examples=40)
@given(kept_wire_circuits())
@example(cx_tilde_decomposition(64))
@example(cx_tilde_decomposition_alt(61))
def test_blocks_of_the_in_place_kernel_match_the_pingpong_kernel(c):
    want = oracles.whole_blocks(c, oracles.pingpong_run)[0]
    assert np.array_equal(_bits(_boxed_blocks(c)[0]), _bits(want))


def _boxed_blocks(c):
    """``_blocks(c)``: its boxes, each copied before the next reuses the buffer, joined in
    label order, and its label map."""
    base, parts, col, boxes = _blocks(c)
    return np.concatenate([t.copy() for _, t in boxes]), base, parts, col


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 64), st.integers(1, 4096), st.integers(0, 2**32 - 1))
@example(rows=5, cols=4096, seed=0)
@example(rows=7, cols=4095, seed=0)
@example(rows=9, cols=4094, seed=0)
@example(rows=11, cols=4093, seed=0)
@example(rows=13, cols=4092, seed=0)
@example(rows=16, cols=4091, seed=0)
@example(rows=31, cols=4090, seed=0)
@example(rows=64, cols=4089, seed=0)
@example(rows=3, cols=1, seed=0)
@example(rows=57, cols=785, seed=0)
@example(rows=6, cols=1011, seed=2557799656)  # without the rule, a cut inside the last panel
def test_dense_slab_step_keeps_the_bits_of_the_whole_call(rows, cols, seed):
    # OpenBLAS computes a column by its 8-wide panel; this also fails if an
    # update of numpy or OpenBLAS changes that rule
    rng = np.random.default_rng(seed)
    g = GateMatrix(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
    x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    want = g.matrix @ x
    inner = int(rng.choice([c for c in range(1, cols + 1) if cols % c == 0]))
    for slab in (2**10, 2**12, _SLAB):
        # the rows first in memory (boxes read in place), or gathered from between the columns
        for front in (x.reshape(rows, -1, inner).copy(),
                      x.reshape(rows, -1, inner).transpose(1, 0, 2).copy().transpose(1, 0, 2)):
            with mock.patch.object(circuit, "_SLAB", slab):
                _apply(g, front, 1, 0, cols)
            assert np.array_equal(_bits(front.reshape(rows, cols)), _bits(want)), (slab, inner)


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 64), st.integers(1, 2048), st.data())
@example(rows=9, cols=81, data=None)
@example(rows=61, cols=61 * 61, data=None)
@example(rows=2, cols=1585, data=None)  # a last box of one column, the whole call's last panel
def test_dense_boxes_of_a_whole_call_keep_its_bits(rows, cols, data):
    # a whole call's columns cut into boxes, none inside its last partial panel,
    # each applied on its own from its whole-call place: in place, or gathered
    rng = np.random.default_rng(rows * cols)
    g = GateMatrix(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
    x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    want = g.matrix @ x
    edges = range(rows, cols // 8 * 8 + 1, rows) if data is None else data.draw(
        st.lists(st.integers(1, cols // 8 * 8), max_size=4)) if cols >= 8 else []
    edges = [0, *sorted(set(edges) - {0, cols}), cols]
    for slab in (2**8, _SLAB):
        got = x.copy()
        for i, (a, b) in enumerate(zip(edges, edges[1:])):
            box = got[:, a:b] if i % 2 else np.ascontiguousarray(got[:, a:b])
            with mock.patch.object(circuit, "_SLAB", slab):
                _apply(g, box, 1, a, cols)
            got[:, a:b] = box
        assert np.array_equal(_bits(got), _bits(want)), (slab, edges)


def test_run_of_an_empty_circuit_returns_the_input_values():
    x = np.arange(12, dtype=np.complex128).reshape(12, 1) * (1 - 2j)
    assert np.array_equal(_run(Circuit(2, 2), x.reshape(4, 3).copy()).reshape(4, 3), x.reshape(4, 3))
    assert np.array_equal(_run(Circuit(12, 1), x.copy()), x)


def test_simulate_leaves_its_input_unchanged_and_read_only():
    c = cx_tilde_decomposition(3)
    amps = _random_amps(5, 9)
    s = StateVector(3, 2, amps)
    before = s.amps.copy()
    out = simulate(c, s)
    assert np.array_equal(s.amps, before) and not s.amps.flags.writeable
    assert not np.array_equal(out.amps, before)


def _ops(d, *specs):
    return tuple(GateOp(kind, wires) for kind, wires in specs)


# SWAP of wires 1 and 3 as nine QFT / phase gates: kept wires between free ones
SWAP_1_3 = expand_cx_tilde(Circuit(3, 4, _ops(3, (GateKind.CXTilde, (3, 1)),
                                              (GateKind.CXTilde, (1, 3)),
                                              (GateKind.CXTilde, (3, 1)))))

# circuits in which some wire's digit is never changed: the unitary is built
# block by block over the other wires
KEPT_WIRE_CIRCUITS = [
    *(build(d) for build in (cx_tilde_decomposition, cx_tilde_decomposition_alt)
      for d in range(2, 9)),
    *(Circuit(d, 3, _ops(d, (GateKind.QFT, (2,)))) for d in (2, 3)),
    Circuit(3, 3, _ops(3, (GateKind.QFT, (2,)), (GateKind.CXd, (1, 2)),
                       (GateKind.CZd, (3, 2)), (GateKind.IQFT, (2,)))),
    SWAP_1_3,
]


@st.composite
def boxed_circuits(draw):
    """A circuit at d 2..64 on n 2..4 wires, d^(n+f) <= 2^16 for f free wires (2^18 at n = 2),
    and the box size its blocks run in.

    Drawn from all ten kinds: each op moves the free wires alone, so a kept wire 1
    takes tables (ID, X at d = 2, a control) and phases, and only a wire 1 that takes
    phases alone is cut into boxes; wire 1 is free in one circuit in four.  Otherwise
    the blocks are one box.  Boxes of one digit of wire 1 put an edge next to a dense
    op's last partial panel when d is odd.
    """
    d = draw(st.integers(2, 64))
    n = draw(st.integers(2, max(k for k in (2, 3, 4) if k == 2 or d ** (k + 1) <= 2**16)))
    free = draw(st.lists(st.integers(2, n), min_size=1, unique=True))
    free = sorted(free + [1] * (draw(st.integers(0, 3)) == 0))  # wire 1 free in one of four
    while d ** (n + len(free)) > (2**18 if n == 2 else 2**16):
        free.pop()
    ops = []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6)):
        if kind in (GateKind.QFT, GateKind.IQFT) or (kind is GateKind.Xd and d > 2):
            ops.append(GateOp(kind, (draw(st.sampled_from(free)),)))
        elif kind.arity == 1:  # ID, and X at d = 2, keep their digit
            ops.append(GateOp(kind, (draw(st.integers(1, n)),)))
        elif kind is GateKind.SWAP:
            if len(free) > 1:
                ops.append(GateOp(kind, tuple(draw(st.permutations(free))[:2])))
        elif kind in (GateKind.CZd, GateKind.CZdDag):
            ops.append(GateOp(kind, tuple(draw(st.permutations(range(1, n + 1)))[:2])))
        else:  # a controlled adder changes its target's digit alone
            target = draw(st.sampled_from(free))
            ops.append(GateOp(kind, (draw(st.sampled_from([w for w in range(1, n + 1)
                                                           if w != target])), target)))
    ops = ops or [GateOp(GateKind.QFT, (free[-1],))]  # no SWAP on one free wire
    box = draw(st.sampled_from([circuit._BOX, 2**11, 300, 1]))
    return Circuit(d, n, tuple(ops)), box


@settings(deadline=None, max_examples=200)
@given(boxed_circuits(), st.integers(0, 2**32 - 1))
@example((cx_tilde_decomposition(2), 1), 0)
@example((cx_tilde_decomposition(9), 1), 0)
@example((cx_tilde_decomposition_alt(11), 1), 1)
@example((cx_tilde_decomposition(61), circuit._BOX), 0)
@example((cx_tilde_decomposition_alt(64), circuit._BOX), 1)
@example((Circuit(5, 3, _ops(5, (GateKind.QFT, (3,)), (GateKind.CXd, (1, 3)),
                           (GateKind.CZdDag, (3, 1)), (GateKind.Identity, (1,)),
                           (GateKind.IQFT, (2,)), (GateKind.SWAP, (2, 3)))), 300), 0)
@example((Circuit(2, 3, _ops(2, (GateKind.QFT, (2,)), (GateKind.Xd, (1,)),
                           (GateKind.CXTilde, (1, 3)))), 1), 1)
@example((Circuit(7, 2, _ops(7, (GateKind.QFT, (1,)), (GateKind.CZd, (1, 2)),
                           (GateKind.QFT, (2,)))), 1), 0)
@example((Circuit(2, 2, _ops(2, (GateKind.CZd, (1, 2)))), 1), 0)  # no free wire: phases
@example((Circuit(9, 2, _ops(9, (GateKind.QFT, (2,)), (GateKind.CZd, (2, 1)),
                           (GateKind.QFT, (2,)))), 300), 0)  # wire 1 second: its phases' axis 1 cut
def test_boxed_blocks_match_the_whole_array_bit_for_bit(case, seed):
    c, box = case
    rng = np.random.default_rng(seed)
    d, n = c.d, c.n
    with mock.patch.object(circuit, "_BOX", box):
        blocks, base, parts, col = _boxed_blocks(c)
        assert np.array_equal(_bits(blocks), _bits(oracles.whole_blocks(c)[0]))
        # a table that keeps every label in its block, or any table
        perm = base + parts[rng.permutation(parts.size)][col] if seed % 2 else rng.permutation(d**n)
        table = GateMatrix(perm=perm)
        assert table_dist(c, table).hex() == oracles.table_dist(c, table).hex()
        if d**n <= 512:
            got_u, want_u = circuit_unitary(c), oracles.circuit_unitary(c)
            assert np.array_equal(_bits(got_u.entries), _bits(want_u.entries))


def test_a_kept_wire_1_runs_the_blocks_a_box_of_its_digits_at_a_time():
    # 8,000 entries a box at most: 5 digits of wire 1 at d = 40, 1 at d = 64, and a
    # dense op whose columns of a digit are not whole panels pads a box by 14 of them
    for d, sizes in ((40, [5] * 8), (64, [1] * 64), (63, [1] * 63), (31, [7, 7, 7, 7, 3])):
        _, _, _, boxes = _blocks(cx_tilde_decomposition(d))
        shapes = [(rows, t.shape) for rows, t in boxes]
        assert [t[0] for _, t in shapes] == sizes, d
        assert all(t[1:] == (d, d) and r.stop - r.start == t[0] * d for r, t in shapes)
        assert max(t[0] for _, t in shapes) * d * d + 14 * d * (d % 8 > 0) <= circuit._BOX
    # wire 1 free: one box of every label
    (rows, t), = _blocks(Circuit(40, 2, _ops(40, (GateKind.QFT, (1,)))))[3]
    assert rows == slice(0, 1600) and t.shape == (40, 40, 40)
    # a table on wire 1 keeps its digit but not its box: one box of every label, as one array
    for c in (Circuit(40, 2, _ops(40, (GateKind.CXd, (1, 2)), (GateKind.QFT, (2,)))),
              Circuit(64, 2, (GateOp(GateKind.Identity, (1,)), *cx_tilde_decomposition(64).ops))):
        d = c.d
        (rows, t), = _blocks(c)[3]
        assert rows == slice(0, d * d) and t.shape == (d, d, d)
        assert np.array_equal(_bits(_boxed_blocks(c)[0]), _bits(oracles.whole_blocks(c)[0]))
        table = gate_matrix(GateKind.CXTilde, d)
        assert table_dist(c, table).hex() == oracles.table_dist(c, table).hex()
        got_u, want_u = circuit_unitary(c), oracles.circuit_unitary(c)
        assert np.array_equal(_bits(got_u.entries), _bits(want_u.entries))


@pytest.mark.parametrize("c", KEPT_WIRE_CIRCUITS, ids=lambda c: f"d{c.d}n{c.n}-{len(c.ops)}ops")
def test_circuit_unitary_with_kept_wires_matches_oracle(c):
    u = circuit_unitary(c)
    assert u.matrix is not None
    assert np.max(np.abs(u.entries - oracles.unitary(c))) <= 1e-12


def test_phase_circuit_unitary_is_phases():
    c = Circuit(3, 3, _ops(3, (GateKind.CZd, (1, 3)), (GateKind.Identity, (2,)),
                           (GateKind.CZdDag, (2, 1))))
    u = circuit_unitary(c)
    assert u.phases is not None
    assert np.max(np.abs(u.entries - oracles.unitary(c))) <= 1e-12


@st.composite
def dense_and_table(draw):
    """A table and a dense matrix that equals it or has one worst entry on or off it."""
    dim = draw(st.integers(2, 12))
    perm = draw(st.permutations(range(dim)))
    dense = oracles.permutation_matrix(perm)
    case = draw(st.sampled_from(["equal", "off", "on"]))
    if case != "equal":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dense += 1e-3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        col = draw(st.integers(0, dim - 1))
        others = [r for r in range(dim) if r != perm[col]]
        row = perm[col] if case == "on" else draw(st.sampled_from(others))
        dense[row, col] += 0.5 - 0.5j
    return perm, dense, case


@given(dense_and_table())
def test_dense_against_table_matches_oracle(drawn):
    perm, dense, case = drawn
    diff = np.abs(dense - oracles.permutation_matrix(perm))
    want = float(np.max(diff))
    table, other = GateMatrix(perm=perm), GateMatrix(dense)
    assert max_entry_dist(other, table) == want
    assert max_entry_dist(table, other) == want
    if case == "equal":
        assert want == 0.0
    else:
        row, col = np.unravel_index(np.argmax(diff), diff.shape)
        assert (row == perm[col]) == (case == "on")


# 1, -1 and the signed zeros drawn often
_ENTRY = st.sampled_from([1, -1, 1j, 0j, complex(-0.0, -0.0), 1 + 1e-12j]) | st.complex_numbers(
    max_magnitude=1, allow_nan=False, allow_infinity=False)


def _phase_vectors(dim):
    """Phase vectors of ``dim`` entries."""
    return st.lists(_ENTRY, min_size=dim, max_size=dim).map(lambda v: GateMatrix(phases=v))


@st.composite
def _dense_near(draw, phases):
    """A dense matrix of the phase gate's size: its diagonal, a table or 0s, and drawn entries."""
    dim = phases.dim
    start = draw(st.sampled_from(["diagonal", "table", "zeros"]))
    if start == "diagonal":
        m = np.diag(phases.phases)
    elif start == "table":
        m = oracles.permutation_matrix(draw(st.permutations(range(dim))))
    else:
        m = np.zeros((dim, dim), dtype=np.complex128)
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), _ENTRY)
    for row, col, value in draw(st.lists(cells, max_size=4)):
        m[row, col] = value
    return GateMatrix(m)


@st.composite
def phase_and_other(draw):
    """A phase gate and a second phase gate, a table or a dense matrix of its size."""
    dim = draw(st.integers(1, 12))
    phases = draw(_phase_vectors(dim))
    perms = st.just(list(range(dim))) | st.permutations(range(dim))
    tables = perms.map(lambda p: GateMatrix(perm=p))
    other = draw(_phase_vectors(dim) | tables | _dense_near(phases))
    return phases, other


@given(phase_and_other())
@example((GateMatrix(phases=[0.5, 0.5]), GateMatrix(perm=[1, 0])))  # the off-diagonal 1s differ most
@example((GateMatrix(phases=[0.5, -1]), GateMatrix(np.diag([0.5, -1]))))  # equal
@example((GateMatrix(phases=[1, 1j]), GateMatrix([[1, 0.25], [0, 1j]])))  # off the diagonal
def test_phase_compare_matches_the_dense_compare_bit_for_bit(drawn):
    for a, b in (drawn, drawn[::-1]):
        want = max_entry_dist(GateMatrix(a.entries), GateMatrix(b.entries))
        assert max_entry_dist(a, b).hex() == want.hex()


def test_phase_compare_peaks_near_the_vectors():
    cz = cz_d(64)
    for a, b in ((cz, cz_d_dag(64)), (cz, identity_gate(64, 2)), (cx_tilde(64), cz)):
        _, peak = peak_bytes(lambda: max_entry_dist(a, b))
        assert peak <= 3 * cz.phases.nbytes  # 4,096 phases: no 4,096 x 4,096 matrix


def test_phase_compare_reads_a_dense_matrix_in_place():
    rng = np.random.default_rng(5)
    dense, phases = GateMatrix(np.exp(1j * rng.standard_normal((1024, 1024)))), cz_d(32)
    for a, b in ((dense, phases), (phases, dense)):
        _, peak = peak_bytes(lambda: max_entry_dist(a, b))
        assert peak <= 0.75 * dense.matrix.nbytes  # one float per entry: no diag(phases)


@st.composite
def circuit_and_table(draw):
    """A circuit and a table of its size.

    The table is a random permutation, or the table of a random circuit of
    permutation gates.  The circuit is a random mixed one, whose blocks the
    table's support often leaves, or that permutation circuit with its CXT
    gates expanded into QFT / CZ / QFT, within rounding of the table.
    """
    d, n = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    perm_circuit = draw(circuits_on(d, n, PERM_KINDS))
    table = circuit_unitary(perm_circuit)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        table = GateMatrix(perm=rng.permutation(d**n))
    if draw(st.booleans()):
        return expand_cx_tilde(perm_circuit), table
    return draw(circuits_on(d, n)), table


@settings(deadline=None, max_examples=150)
@given(circuit_and_table())
@example((cx_tilde_decomposition(4), cx_tilde(4)))
@example((cx_tilde_decomposition_alt(5), cx_tilde(5)))
@example((Circuit(3, 2, _ops(3, (GateKind.QFT, (2,)))), swap_ref(3)))
@example((Circuit(3, 2, _ops(3, (GateKind.CZd, (1, 2)))), cx_tilde(3)))
# free wires 1 and 3 around kept wires 2 and 4: a table that keeps every label
# in its block, then one that moves the kept digits
@example((SWAP_1_3, circuit_unitary(Circuit(3, 4, _ops(3, (GateKind.SWAP, (1, 3)))))))
@example((SWAP_1_3, circuit_unitary(Circuit(3, 4, _ops(3, (GateKind.SWAP, (2, 4)))))))
@example((Circuit(2, 4, _ops(2, (GateKind.CZd, (1, 3)), (GateKind.CZdDag, (4, 2)))),
          circuit_unitary(Circuit(2, 4, _ops(2, (GateKind.SWAP, (1, 3)))))))
def test_table_dist_matches_dense_compare(drawn):
    c, table = drawn
    assert table_dist(c, table) == max_entry_dist(circuit_unitary(c), table)


def test_table_dist_counts_a_label_leaving_its_block():
    # QFT on wire 2 keeps wire 1 and makes every block entry 1/2 in size;
    # CX with control 2 moves every label whose second digit is not 0 off its block
    d = 4
    c = Circuit(d, 2, _ops(d, (GateKind.QFT, (2,))))
    table = circuit_unitary(Circuit(d, 2, _ops(d, (GateKind.CXd, (2, 1)))))
    assert table_dist(c, table) == max_entry_dist(circuit_unitary(c), table) == 1.0


def test_table_dist_rejects_a_target_that_is_not_a_table_of_its_size():
    c = cx_tilde_decomposition(3)
    with pytest.raises(DimensionError, match="permutation table"):
        table_dist(c, qft(9))
    with pytest.raises(DimensionError):
        table_dist(c, cx_tilde(4))


def test_verify_decomposition_allocates_less_than_a_quarter_of_the_unitary():
    d = 32
    verify_identity("decomposition", d)  # lazy set-up is not counted
    _, peak = peak_bytes(lambda: verify_identity("decomposition", d))
    assert peak < d**4 * 16 / 4


@pytest.mark.parametrize("d", [21, 32, 40, 59, 61, 63, 64])
def test_decomposition_distance_allocates_a_box_and_buffers_under_128_kib(d):
    # with its gates and label map built: one box of blocks, two slab buffers (one
    # when the dense op reads its rows where they lie), the compare's |b| of a box,
    # and five index arrays of d^2 labels, 4096 at most: 265 to 512 KiB over
    # d = 20..64, where the blocks at d = 64 were one array of 4 MiB
    token = gates.GATE_SET.set({})
    try:
        verify_identity("decomposition", d)
        for build in (cx_tilde_decomposition, cx_tilde_decomposition_alt):
            _, peak = peak_bytes(lambda: table_dist(build(d), cx_tilde(d)))
            assert peak <= 4 * 2**17 + 5 * 8 * 4096, (build.__name__, peak)
    finally:
        gates.GATE_SET.reset(token)


def test_simulate_allocates_one_copy_and_slab_buffers():
    # the copy of the state, two slab buffers of a gathering op (d^2 rows of
    # at most _SLAB / d^2 + 16 columns each) and the phase multiply's buffer
    d, n = 2, 18
    rng = np.random.default_rng(3)
    wires = [rng.permutation(range(1, n + 1))[: kind.arity] for kind in KINDS * 2]
    c = Circuit(d, n, tuple(GateOp(kind, tuple(w)) for kind, w in zip(KINDS * 2, wires)))
    s = StateVector(d, n, _random_amps(3, d**n))
    simulate(c, s)  # builds the gates
    _, peak = peak_bytes(lambda: simulate(c, s))
    assert peak <= s.amps.nbytes + 2.5 * _SLAB * 16


def test_unitary_and_compare_allocate_little_beyond_the_output():
    c, target = cx_tilde_decomposition(16), cx_tilde(16)
    u, build_peak = peak_bytes(lambda: circuit_unitary(c))
    size = u.matrix.nbytes
    assert build_peak <= 1.5 * size
    for args in ((u, target), (target, u)):
        _, compare_peak = peak_bytes(lambda: max_entry_dist(*args))
        assert compare_peak <= 0.75 * size


def test_table_dist_of_a_permutation_circuit_needs_only_the_state_budget():
    # 2^13 labels are over the unitary budget of 4096 but well within the state's
    d, n = 2, 13
    c = Circuit(d, n, (GateOp(GateKind.CXd, (1, 2)),) * 2)
    assert table_dist(c, identity_gate(d, n)) == 0.0
    once = Circuit(d, n, c.ops[:1])
    assert table_dist(once, identity_gate(d, n)) == 1.0



@st.composite
def dense_first_circuits(draw):
    """A circuit whose op 0 is a QFT or an IQFT: d 2..9, n 1..4, d^n at most 729.

    Half of them change no digit but op 0's, which is then written, not
    multiplied; the rest add drawn ops, which often free other wires too.
    """
    d = draw(st.integers(2, 9))
    n = draw(st.integers(1, next(k for k in (4, 3, 2) if d**k <= 729)))
    wire = draw(st.integers(1, n))
    ops = [GateOp(draw(st.sampled_from([GateKind.QFT, GateKind.IQFT])), (wire,))]
    if draw(st.booleans()):
        keeping = [GateKind.QFT, GateKind.IQFT, GateKind.CZd, GateKind.CZdDag, GateKind.Identity]
        for kind in draw(st.lists(st.sampled_from([k for k in keeping if k.arity <= n]),
                                  max_size=4)):
            wires = draw(st.permutations(range(1, n + 1)))[: kind.arity]
            ops.append(GateOp(kind, (wire,) if kind in (GateKind.QFT, GateKind.IQFT) else wires))
    else:
        ops += draw(circuits_on(d, n)).ops
    return Circuit(d, n, tuple(ops))


@settings(deadline=None, max_examples=150)
@given(dense_first_circuits(), st.integers(0, 2**32 - 1))
@example(cx_tilde_decomposition(9), 1)
@example(cx_tilde_decomposition_alt(9), 1)
@example(Circuit(3, 3, _ops(3, (GateKind.IQFT, (2,)), (GateKind.CZd, (3, 2)))), 0)
@example(Circuit(2, 4, _ops(2, (GateKind.QFT, (3,)), (GateKind.CXd, (1, 4)))), 1)
def test_op0_write_matches_the_identity_start(c, seed):
    blocks, base, parts, col = _boxed_blocks(c)
    assert np.array_equal(blocks, oracles.identity_start_blocks(c)[0])
    rng = np.random.default_rng(seed)
    # a table that keeps every label in its block, or any table
    perm = base + parts[rng.permutation(parts.size)][col] if seed % 2 else rng.permutation(c.d**c.n)
    table = GateMatrix(perm=perm)
    want_dist = oracles.table_dist(c, table, oracles.identity_start_blocks)
    want_u = oracles.circuit_unitary(c, oracles.identity_start_blocks)
    assert table_dist(c, table) == want_dist
    assert np.array_equal(circuit_unitary(c).entries, want_u.entries)


@pytest.mark.parametrize("c", KEPT_WIRE_CIRCUITS, ids=lambda c: f"d{c.d}n{c.n}-{len(c.ops)}ops")
def test_blocks_of_kept_wire_circuits_match_the_identity_start(c):
    assert np.array_equal(_boxed_blocks(c)[0], oracles.identity_start_blocks(c)[0])


class _JunkNumpy:
    """numpy as ``quditswap.circuit`` sees it, but ``empty`` sets every byte to 0xFF: NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        a = np.empty(*args, **kwargs)
        a.view(np.uint8).fill(0xFF)
        return a


@settings(deadline=None, max_examples=80)
@given(dense_first_circuits(), st.data())
def test_blocks_start_from_memory_that_holds_junk(c, data):
    # a dense op 0 is written in place; the second circuit starts from the identity
    d, n = c.d, c.n
    kinds = [k for k in KINDS if k not in (GateKind.QFT, GateKind.IQFT) and k.arity <= n]
    kind = data.draw(st.sampled_from(kinds))
    first = GateOp(kind, tuple(data.draw(st.permutations(range(1, n + 1)))[: kind.arity]))
    second = Circuit(d, n, (first, *data.draw(circuits_on(d, n)).ops))
    for circ in (c, second):
        want = oracles.identity_start_blocks(circ)[0]
        with mock.patch("quditswap.circuit.np", _JunkNumpy()):
            assert np.array_equal(_boxed_blocks(circ)[0], want)


def test_verify_reports_match_the_identity_start():
    with mock.patch("quditswap.verify.table_dist",
                    lambda c, t: oracles.table_dist(c, t, oracles.identity_start_blocks)):
        want = verify_all(2, 64)
    assert verify_all(2, 64) == want


@given(st.integers(2, 5))
def test_gate_forms_match_oracle(d):
    for kind in KINDS:
        g = gate_matrix(kind, d)
        assert (g.matrix is not None) == (kind in (GateKind.QFT, GateKind.IQFT))
        assert (g.phases is not None) == (kind in (GateKind.CZd, GateKind.CZdDag))
        table = oracles.perm_table(kind, d)
        assert (table is not None) == (g.perm is not None)
        if table is not None:
            assert np.array_equal(g.entries, oracles.permutation_matrix(table))
        else:
            assert np.max(np.abs(g.entries - oracles.gate_entries(kind, d))) <= 1e-12
        assert np.array_equal(g.dagger().entries, g.entries.conj().T)


def _oracle_dense(kind, d):
    """The dense matrix of a gate kind from the oracles, with the builders' bits."""
    table = oracles.perm_table(kind, d)
    if table is not None:
        return oracles.permutation_matrix(table)
    entries = oracles.root_power_entries(kind, d)
    return np.diag(entries) if kind in (GateKind.CZd, GateKind.CZdDag) else entries


# a kind, a d and a slice of its rows: empty slices and steps > 1 among them
_gate_rows = st.tuples(st.sampled_from(KINDS), st.integers(2, 9)).flatmap(
    lambda kd: st.tuples(st.just(kd[0]), st.just(kd[1]), st.slices(kd[1] ** kd[0].arity)))


@settings(deadline=None, max_examples=100)
@given(_gate_rows)
@example((GateKind.IQFT, 5, slice(None, None, 2)))
@example((GateKind.CZdDag, 3, slice(7, 2)))
def test_dense_rows_of_every_form_match_the_oracle_bit_for_bit(drawn):
    kind, d, s = drawn
    got, want = _dense_rows(gate_matrix(kind, d), s), _oracle_dense(kind, d)[s]
    assert got.shape == want.shape
    # compared as int64 words, so that a zero's sign counts
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


@pytest.mark.parametrize("d", [*range(2, 65), 255, 256])
def test_root_vector_builders_match_the_per_entry_formula_bit_for_bit(d):
    # compared as int64 words, so that a zero's sign counts
    for kind in (GateKind.QFT, GateKind.IQFT, GateKind.CZd, GateKind.CZdDag):
        g = gate_matrix(kind, d)
        got = np.ascontiguousarray(g.matrix if g.matrix is not None else g.phases)
        want = np.ascontiguousarray(oracles.root_power_entries(kind, d))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), kind


@given(st.integers(2, 30).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)))))
def test_table_algebra_matches_dense(perms):
    a, b = (GateMatrix(perm=p) for p in perms)
    dense_a, dense_b = (oracles.permutation_matrix(p) for p in perms)
    assert np.array_equal(a.entries, dense_a)
    assert np.array_equal(a.dagger().entries, dense_a.conj().T)
    assert max_entry_dist(a, b) == float(np.max(np.abs(dense_a - dense_b)))


@pytest.mark.parametrize("d", range(2, 17))
def test_delta_sum_matches_loop(d):
    assert abs(verify_identity("delta_sum", d).max_dev - oracles.delta_sum_max_dev(d)) <= 1e-15


def test_exact_identities_zero_for_every_d():
    exact = {"swap", "self_inverse", "asymmetric_swap", "partial_swap", "random_states"}
    reports = [r for r in verify_all(2, 64) if r.identity_name in exact]
    assert len(reports) == 5 * 63
    for r in reports:
        assert r.max_dev == 0.0 and r.tolerance == 0.0, (r.identity_name, r.d)


def test_label_proofs_agree_with_sampled_checks():
    for d in range(2, 65):
        for name, sampled in (("partial_swap", oracles.sampled_partial_swap),
                              ("random_states", oracles.sampled_random_states)):
            assert verify_identity(name, d).max_dev == sampled(d) == 0.0, (name, d)


def _one_exchange(build):
    """``build`` with one exchange: rows 0 and 1 of a dense gate, entries 0 and 1
    of a one-qudit table, the entries of labels (1, 0) and (1, 1) of a two-qudit
    table or phase vector."""
    def mutant(d):
        g = build(d)
        if g.matrix is not None:
            return GateMatrix(g.matrix[[1, 0, *range(2, d)]])
        held = (g.perm if g.perm is not None else g.phases).copy()
        i, j = (0, 1) if held.size == d else (d, d + 1)
        held[[i, j]] = held[[j, i]]
        return GateMatrix(perm=held) if g.perm is not None else GateMatrix(phases=held)
    return mutant


# the mutant is the table of each circuit's first op, which reads (1, 0) for
# label (1, 0) of the partial swap and for label (0, 1) of SWAP
@pytest.mark.parametrize("name,sampled,kind", [
    ("partial_swap", oracles.sampled_partial_swap, GateKind.CXd),
    ("random_states", oracles.sampled_random_states, GateKind.CXTilde),
], ids=["partial_swap", "random_states"])
@pytest.mark.parametrize("d", [2, 3, 7, 64])
def test_label_proofs_and_sampled_checks_fail_on_one_exchanged_entry(
        monkeypatch, name, sampled, kind, d):
    monkeypatch.setitem(gates._BUILDERS, kind, _one_exchange(gates._BUILDERS[kind]))
    r = verify_identity(name, d)
    assert r.max_dev == 1.0 and not r.passed
    assert sampled(d) > 0.0


# each table row's circuits and target, compared densely by the slow oracle
_DENSE_ROWS = {
    "swap": (lambda d: (swap_circuit(d), swap_circuit_alt(d)), swap_ref),
    "decomposition": (
        lambda d: (cx_tilde_decomposition(d), cx_tilde_decomposition_alt(d)), cx_tilde),
    "self_inverse": (
        lambda d: (Circuit(d, 2, _ops(d, (GateKind.CXTilde, (1, 2)), (GateKind.CXTilde, (1, 2)))),),
        lambda d: identity_gate(d, 2)),
    "asymmetric_swap": (lambda d: (asymmetric_swap_circuit(d),), swap_ref),
    "random_states": (lambda d: (swap_circuit(d),), swap_ref),
}


def _oracle_dev(name, d):
    if name == "partial_swap":
        return oracles.sampled_partial_swap(d)
    if name == "delta_sum":
        return oracles.delta_sum_max_dev(d)
    circuits, target = _DENSE_ROWS[name]
    return max(max_entry_dist(circuit_unitary(c), target(d)) for c in circuits(d))


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@pytest.mark.parametrize("d", [2, 3, 7])
def test_every_row_fails_exactly_when_the_slow_oracle_does(monkeypatch, kind, d):
    monkeypatch.setitem(gates._BUILDERS, kind, _one_exchange(gates._BUILDERS[kind]))
    failed, rows = [], []
    for name in IDENTITIES:
        r = verify_identity(name, d)
        assert r.passed == (_oracle_dev(name, d) <= r.tolerance), (name, r.max_dev)
        failed += [] if r.passed else [name]
        rows.append(r)
    # every kind that some row's circuits use is caught by one row at least
    assert bool(failed) == (kind not in (GateKind.SWAP, GateKind.Identity))
    # the rows sharing one gate set give the same reports: the set hands the
    # patched gate to no target, and no target to a circuit
    assert verify_all(d, d) == rows


def _cli_out(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_label_path(qc, c, label):
    """``quditswap simulate --input`` on a table circuit against simulate + argmax."""
    qc.write_text(render(c), encoding="utf-8")
    out = simulate(c, basis_state(label, c.d))
    want = [int(x) for x in np.unravel_index(np.argmax(np.abs(out.amps)), (c.d,) * c.n)]
    argv = ["simulate", "--circuit", str(qc), "--input", ",".join(map(str, label))]
    assert _cli_out(argv) == (0, ",".join(map(str, want)) + "\n")
    assert _cli_out(argv + ["--json"]) == (0, json.dumps({"label": want}) + "\n")


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 5).flatmap(lambda d: st.integers(1, 6).flatmap(lambda n: st.tuples(
    circuits_on(d, n, PERM_KINDS), st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))))
def test_cli_label_path_matches_simulate(case):
    c, label = case
    with tempfile.TemporaryDirectory() as tmp:
        _check_label_path(Path(tmp) / "perm.qc", c, tuple(label))


def _random_perm_circuit(rng, d, n, count):
    ops = []
    for _ in range(count):
        kind = PERM_KINDS[rng.integers(len(PERM_KINDS))]
        wires = rng.permutation(n)[: kind.arity] + 1
        ops.append(GateOp(kind, tuple(wires)))
    return Circuit(d, n, tuple(ops))


def test_cli_label_path_matches_simulate_on_2_to_the_13(tmp_path):
    rng = np.random.default_rng(13)
    c = _random_perm_circuit(rng, 2, 13, 40)
    for _ in range(3):
        _check_label_path(tmp_path / "perm.qc", c, tuple(rng.integers(0, 2, 13).tolist()))


def test_cli_label_path_allocates_no_register(tmp_path):
    # 2^20 amplitudes would take 16 MB; one label's digits take 160 B
    rng = np.random.default_rng(20)
    c = _random_perm_circuit(rng, 2, 20, 40)
    label = tuple(rng.integers(0, 2, 20).tolist())
    qc = tmp_path / "perm.qc"
    qc.write_text(render(c), encoding="utf-8")
    argv = ["simulate", "--circuit", str(qc), "--input", ",".join(map(str, label))]
    (code, out), peak = peak_bytes(lambda: _cli_out(argv))
    assert code == 0 and peak < 2**20
    amps = simulate(c, basis_state(label, 2)).amps
    assert out == ",".join(map(str, np.unravel_index(np.argmax(np.abs(amps)), (2,) * 20))) + "\n"


def test_large_gates_hold_no_dense_matrix():
    for g in (cx_tilde(64), swap_ref(64), cz_d(64)):
        held = [a for a in (g.matrix, g.perm, g.phases) if a is not None]
        assert len(held) == 1 and held[0].size <= 4096


def test_table_check_peaks_near_the_table():
    # the table, its checked copy and one bool per label: no sorted copy, no arange
    g, peak = peak_bytes(lambda: identity_gate(2, 20))
    assert peak <= 2.5 * g.perm.nbytes


def _state_file(path, amps):
    """Amplitude file in each form the reader takes: spaces, commas, comments, blank lines."""
    forms = ("{!r} {!r}\n", "{!r},{!r}  # amplitude\n", "  {!r} , {!r}\t\n")
    lines = [forms[i % 3].format(float(a.real), float(a.imag)) for i, a in enumerate(amps)]
    path.write_text("# state\n\n" + "".join(lines), encoding="utf-8")


def _check_simulate_io(tmp, d, n, amps):
    """Reader and amplitude output of ``quditswap simulate`` against the oracles.

    An ID gate moves the amplitudes unchanged, so the output shows the
    formatter alone.
    """
    state, qc = tmp / "state.txt", tmp / "id.qc"
    _state_file(state, amps)
    qc.write_text(f"dim {d}\nwires {n}\nID 1\n", encoding="utf-8")
    want = oracles.load_state(state, d, n).amps
    got = cli._load_state(str(state), d, n).amps
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for flags in ((), ("--json",)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["simulate", "--circuit", str(qc), "--state", str(state), *flags]) == 0
        assert buf.getvalue() == oracles.format_amplitudes(want, bool(flags))


def test_simulate_io_matches_oracle_at_the_edges(tmp_path):
    eps = cli.AMP_EPSILON
    parts = [0.0, -0.0, 5e-324, -2.5e-308, eps, -eps, np.nextafter(eps, 0),
             np.nextafter(eps, 1), 0.6, -1.0]
    amps = np.array([complex(re, im) for re in parts for im in parts])
    _check_simulate_io(tmp_path, 10, 2, amps)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 1), (3, 2), (2, 5), (5, 2)]),
       st.sampled_from([1.0, 1e-11]))
def test_simulate_io_matches_oracle_on_random_states(seed, shape, scale):
    d, n = shape
    with tempfile.TemporaryDirectory() as tmp:
        _check_simulate_io(Path(tmp), d, n, scale * _random_amps(seed, d**n))


@pytest.mark.parametrize("text", [
    "1 0\n",  # too few amplitudes
    "1 0\n0 0 0\n",
    "1 0\n,\n",
    "1 0\n,\n0 0\n",  # the count is right, but a line of commas alone is no pair
    "1 0\n , ,# c\n0 0\n",
    ",\n1 0\n0 0\n",
    "1 0\nabc 0\n",
    "x 0\n1 2 3\n",  # the bad number comes first
    # four numbers on one line, or one on each of four: the count fits d = 2, n = 1
    pytest.param("1 0 0 0\n", id="four-columns"),
    pytest.param("1\n0\n0\n0\n", id="one-column"),
])
def test_load_state_errors_match_oracle(tmp_path, text):
    f = tmp_path / "state.txt"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as want:
        oracles.load_state(f, 2, 1)
    with pytest.raises(ValueError) as got:
        cli._load_state(str(f), 2, 1)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_line_reader_peaks_near_the_state(tmp_path):
    # commas send the file to the line reader, which holds one float per number read
    n = 16
    amps = _random_amps(16, 2**n)
    f = tmp_path / "state.txt"
    f.write_text("".join(f"{a.real!r},{a.imag!r}\n" for a in amps.tolist()), encoding="utf-8")
    state, peak = peak_bytes(lambda: cli._load_state(str(f), 2, n))
    assert np.array_equal(state.amps, amps)
    size = amps.nbytes
    assert peak <= 7 * size, peak / size


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_a_state_from_a_named_pipe_is_read(tmp_path):
    # a named pipe's bytes can be read once: a second open would wait for a writer that never comes
    fifo = tmp_path / "state.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(cli._load_state(str(fifo), 2, 1).amps.tolist()), daemon=True)
    reader.start()
    with open(fifo, "w", encoding="utf-8") as fh:  # waits for the reader to open the pipe
        fh.write("1 0\n0 0.5\n")
    reader.join(10)
    if reader.is_alive():  # the reader opened the pipe again: end its wait with an empty writer
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(10)
    assert got == [[1, 0.5j]]


@pytest.mark.parametrize("text", ["", "# a comment\n\n  # another\n"])
def test_simulate_state_without_data_is_usage_error(tmp_path, capsys, text):
    state, qc = tmp_path / "state.txt", tmp_path / "id.qc"
    state.write_text(text, encoding="utf-8")
    qc.write_text("dim 2\nwires 1\nID 1\n", encoding="utf-8")
    with pytest.raises(ValueError) as want:
        oracles.load_state(state, 2, 1)
    assert "expected 2 amplitudes, got (0,)" in str(want.value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["simulate", "--circuit", str(qc), "--state", str(state)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {want.value}\n")
    assert caught == []


def _load_outcome(load, path, d, n):
    """Float64 bits of the loaded amplitudes, or the exception's type and message."""
    try:
        return load(path, d, n).amps.view(np.uint64).tolist()
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)


_SEPARATORS = [" ", "\t", ",", "\x0b", "\x0c", "\x1c", "\x85", "\xa0"]
_STATE_ALPHABET = [*"0123456789+-.eE_,# ", *_SEPARATORS[1:], "nan", "inf", "\n", "\r\n"]
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-99, 99).map(str))
_number = st.one_of(
    _finite,
    st.lists(st.sampled_from([*"0123456789+-.eE_", "nan", "inf"]), min_size=1, max_size=6).map("".join),
)
_sep = st.lists(st.sampled_from(_SEPARATORS), max_size=3).map("".join)
_sep1 = st.lists(st.sampled_from(_SEPARATORS), min_size=1, max_size=3).map("".join)


def _pair_line(number):
    return st.tuples(
        _sep, number, _sep1, number, _sep, st.sampled_from(["", "#", "# 1 2"]),
    ).map("".join)


_noise_line = st.lists(st.sampled_from(_STATE_ALPHABET), max_size=12).map("".join)


def _lines(line, ends):
    return st.lists(st.tuples(line, st.sampled_from(ends)), max_size=8).map(
        lambda lines: "".join(a + b for a, b in lines))


_state_text = st.one_of(
    _lines(_pair_line(_finite), ["\n", "\r\n", "\r"]),
    _lines(st.one_of(_pair_line(_number), _noise_line), ["\n", "\r\n", "\r", ""]),
)


@settings(deadline=None, max_examples=300)
@given(_state_text)
@example("1 0\n2 0\n")
@example("1_0 0\n2,0\n")
@example("1 0\r\n\xa0-0\x1c.5e1 # c\n")
@example("1 0\n,\n0 0\n")
@example("1 0\n0 0 0\n")
def test_load_state_matches_oracle_on_drawn_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "state.txt"
        f.write_bytes(text.encode("utf-8"))
        want = _load_outcome(oracles.load_state, f, 2, 1)
        assert _load_outcome(cli._load_state, str(f), 2, 1) == want
        count = re.fullmatch(r"expected 2 amplitudes, got \((\d+),\)", str(want[-1]))
        if count and int(count[1]) >= 2:  # compare the values, on a register that holds them
            d = int(count[1])
            assert _load_outcome(cli._load_state, str(f), d, 1) == _load_outcome(
                oracles.load_state, f, d, 1)


_BIG = "98765432109876543210"  # 20 digits: a d or n this size fits no budget
# .qc lines that the parser refuses, or that put a huge integer where it allocates nothing
_MUTANT_LINES = ["FOO 1", "cxt 1 2", "CX 1 1", "ID", "QFT 1\x00", "\x00", "dim", "dim 3",
                 "wires 2", f"dim {_BIG}", f"wires {_BIG}", f"X {_BIG}", f"CZ 1 {_BIG}"]
# d^2 or d^n over the budget, from an integer alone: the builders or the register refuse
_HUGE_QC = [f"dim {_BIG}\nwires 2\nCZ 1 2\n", f"dim {_BIG}\nwires 2\nQFT 2\n",
            "dim 4097\nwires 2\nCZ 1 2\n", "dim 4097\nwires 1\nQFT 1\n",
            "dim 5000000\nwires 1\nIQFT 1\n"]
# Arabic-Indic, Devanagari and fullwidth digits, each of which int() and float() read
_SCRIPTS = ["\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
            "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
            "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"]
_TO_ASCII = str.maketrans({c: str(i) for script in _SCRIPTS for i, c in enumerate(script)})
# an integer argument; the first branch weights the draws toward a valid d
_arg_int = st.one_of(st.integers(2, 8).map(str), st.integers(-1, 8).map(str),
                     st.sampled_from([_BIG, "x", ""]))


@st.composite
def qc_text(draw):
    """A small circuit's text with lines inserted or replaced, or a circuit of huge d;
    and the (d, n) of the small circuit."""
    d, n = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    c = draw(circuits_on(d, n))
    lines = draw(st.one_of(st.just(render(c)), st.just(render(c)),  # two draws in three
                           st.sampled_from(_HUGE_QC))).splitlines()
    mutation = st.tuples(st.integers(0, len(lines)), st.sampled_from(_MUTANT_LINES), st.booleans())
    for at, line, replace in draw(st.one_of(st.just([]), st.lists(mutation, max_size=2))):
        lines[at:at + replace] = [line]
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(a + b for a, b in zip(lines, ends)), d, n


def state_text(size):
    """``size`` amplitude lines that may overflow a run, or any text of the state alphabet."""
    number = st.one_of(_finite, st.sampled_from(["1.7e308", "-1.7e308", "nan", "inf"]))
    return st.one_of(st.lists(_pair_line(number), min_size=size, max_size=size).map("\n".join),
                     _state_text)


@st.composite
def cli_input(draw):
    """(argv, .qc text, state text) for one run of ``cli.main``; "@qc" and "@state" name the files."""
    # simulate, which reads both files, is drawn twice as often as the others
    command = draw(st.sampled_from(["simulate", "verify", "simulate", "matrix", "parse"]))
    qc, d, n = draw(qc_text())
    state = ""
    if command == "verify":
        argv = ["verify", "--d-min", draw(_arg_int), "--d-max", draw(_arg_int)]
        tol = draw(st.sampled_from([None, "0", "1e-300", "1e-12", "1", "nan", "-1", "inf"]))
        argv += [] if tol is None else ["--tolerance", tol]
    elif command == "matrix":
        gate = draw(st.sampled_from([*MNEMONICS, "FOO", "cxt", ""]))
        argv = ["matrix", "--gate", gate, "--d", draw(_arg_int),
                "--format", draw(st.sampled_from(["csv", "json", "xml"]))]
    elif command == "simulate":
        label = ",".join(draw(st.one_of(
            st.lists(st.integers(0, d - 1).map(str), min_size=n, max_size=n),
            st.lists(_arg_int, max_size=4))))
        given = draw(st.sampled_from([["--input"], ["--state"], ["--state"],
                                      ["--input", "--state"], []]))
        argv = ["simulate", "--circuit", "@qc"]
        argv += ["--input", label] * ("--input" in given) + ["--state", "@state"] * ("--state" in given)
        state = draw(state_text(d**n)) if "--state" in given else ""
    else:
        argv = ["parse", "--circuit", "@qc"]
    argv += ["--json"] * (command in ("verify", "simulate") and draw(st.booleans()))
    script = draw(st.sampled_from([None, *_SCRIPTS]))
    if script is not None:  # the same digits, in another script
        part = draw(st.integers(0, 2))
        to = str.maketrans("0123456789", script)
        argv, qc, state = ([a.translate(to) for a in argv] if part == 0 else argv,
                           qc.translate(to) if part == 1 else qc,
                           state.translate(to) if part == 2 else state)
    return argv, qc, state


def _run_main(argv, qc, state):
    """(exit code, stdout, stderr, warnings, whether ``main`` returned the code rather
    than argparse exiting) of ``cli.main`` on the two texts as files."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        files = {"@qc": Path(tmp) / "c.qc", "@state": Path(tmp) / "state.txt"}
        files["@qc"].write_bytes(qc.encode("utf-8"))
        files["@state"].write_bytes(state.encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code, returned = cli.main([str(files.get(a, a)) for a in argv]), True
            except SystemExit as exc:  # argparse's own usage errors
                code, returned = exc.code, False
    return code, out.getvalue(), err.getvalue(), caught, returned


SIMULATE_STATE = ["simulate", "--circuit", "@qc", "--state", "@state"]


@settings(deadline=None, max_examples=120)
@given(cli_input())
@example((SIMULATE_STATE, "dim 2\nwires 1\nQFT 1\n", "1.7e308 0\n1.7e308 0\n"))
@example((["parse", "--circuit", "@qc"], "dim \u0663\nwires \uff12\nCXT \u0967 2\n", ""))
@example((["simulate", "--circuit", "@qc", "--input", "\u0661,2"], "dim 3\nwires 2\nCXT 1 2\n", ""))
@example((["simulate", "--circuit", "@qc", "--input", "0"], "dim 4097\nwires 1\nQFT 1\n", ""))
def test_cli_main_keeps_the_exit_code_contract_on_drawn_input(drawn):
    argv, qc, state = drawn
    code, out, err, caught, returned = _run_main(argv, qc, state)
    assert code in (0, 1, 2) and "Traceback" not in err
    assert caught == []
    if returned and code == 2:  # main's own usage error: one line, no output
        assert out == "" and re.fullmatch(r"(parse )?error: [^\n]*\n", err)
    # exit 1 means a failed check, and nothing else does
    assert (code == 1) == (argv[0] == "verify" and ("FAIL" in out or '"passed": false' in out))
    assert out.isascii()
    if "non-finite" in err:
        assert re.fullmatch(r"error: non-finite amplitude at index \d+\n", err)
    # non-ASCII decimal digits are read as the ASCII digits they stand for
    plain = ([a.translate(_TO_ASCII) for a in argv], qc.translate(_TO_ASCII),
             state.translate(_TO_ASCII))
    if plain != (argv, qc, state):
        assert _run_main(*plain)[:2] == (code, out)


_STEP = cli._NUMBERS_PER_WRITE // 3  # rows of three numbers per batch


def _same_text(got, want):
    # where the texts part, not a diff: diffing megabytes of text takes minutes
    same = len(os.path.commonprefix([got, want]))
    assert (same, len(got)) == (len(want), len(want))


# the edges of the first batch and of the fourth
@pytest.mark.parametrize("rows", [0, 1, _STEP - 1, _STEP, _STEP + 1,
                                  4 * _STEP - 1, 4 * _STEP, 4 * _STEP + 1])
def test_simulate_text_output_is_batched_byte_for_byte(tmp_path, capsys, rows):
    n = (4 * _STEP + 1).bit_length()
    amps = _random_amps(rows, 2**n)
    amps[rows:] *= 1e-13  # below AMP_EPSILON: not printed
    state, qc = tmp_path / "state.txt", tmp_path / "id.qc"
    _state_file(state, amps)
    qc.write_text(f"dim 2\nwires {n}\nID 1\n", encoding="utf-8")
    want = oracles.load_state(state, 2, n).amps
    assert oracles.format_amplitudes(want, as_json=False).count("\n") == rows
    for flags in ((), ("--json",)):
        assert cli.main(["simulate", "--circuit", str(qc), "--state", str(state), *flags]) == 0
        _same_text(capsys.readouterr().out, oracles.format_amplitudes(want, bool(flags)))


def test_simulate_output_of_no_amplitude_is_empty(tmp_path, capsys):
    state, qc = tmp_path / "state.txt", tmp_path / "id.qc"
    state.write_text("1e-13 0\n0 -0.0\n", encoding="utf-8")
    qc.write_text("dim 2\nwires 1\nID 1\n", encoding="utf-8")
    for flags, want in (((), ""), (("--json",), '{"amplitudes": []}\n')):
        assert cli.main(["simulate", "--circuit", str(qc), "--state", str(state), *flags]) == 0
        assert capsys.readouterr().out == want


# A row of a dim-wide matrix holds 2 * dim numbers, so a batch holds 6144 // dim
# rows: one row at dim 1; exactly one full batch at 78; at 155 a last batch one
# row short, at 156 whole batches only, and at 157 one row past the last full batch
@pytest.mark.parametrize("dim", [1, 78, 155, 156, 157])
def test_matrix_output_is_batched_byte_for_byte(capsys, dim):
    assert cli._NUMBERS_PER_WRITE == 2 * 6144  # the batch the edges above are set by
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m[:, ::3] = complex(-0.0, 0.0)
    m[:, 1::3] *= 1e-300
    for fmt in ("csv", "json"):
        cli._write_matrix(GateMatrix(m), fmt)
        _same_text(capsys.readouterr().out, oracles.format_matrix(m, fmt))


@pytest.mark.parametrize("d", [2, 3, 7, 16])
@pytest.mark.parametrize("mnemonic", list(MNEMONICS))
def test_matrix_output_matches_oracle(capsys, mnemonic, d):
    m = gate_matrix(MNEMONICS[mnemonic], d).entries
    for fmt in ("csv", "json"):
        assert cli.main(["matrix", "--gate", mnemonic, "--d", str(d), "--format", fmt]) == 0
        assert capsys.readouterr().out == oracles.format_matrix(m, fmt)


class _Sink:
    """A stdout that keeps no text, so a peak counts the command's own arrays."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _cli_peak(argv):
    with contextlib.redirect_stdout(_Sink()):
        code, peak = peak_bytes(lambda: cli.main(argv))
    assert code == 0
    return peak


def test_matrix_json_peaks_near_the_dense_matrix():
    # the batched writer peaks at 0.70x; one that makes a Python object of every number, 12x
    size = 256**2 * 16  # CX at d = 16: 256 x 256 complex entries
    assert _cli_peak(["matrix", "--gate", "CX", "--d", "16", "--format", "json"]) <= 2 * size


def test_simulate_json_peaks_near_the_state(tmp_path):
    # the batched writer peaks at 5.5x; one that makes a Python object of every
    # number, 37x. At n = 13 the writer's fixed 12,288-number batch alone reaches 9.3x
    n = 14
    qc = tmp_path / "qft.qc"
    qc.write_text(f"dim 2\nwires {n}\n" + "".join(f"QFT {w}\n" for w in range(1, n + 1)),
                  encoding="utf-8")
    argv = ["simulate", "--circuit", str(qc), "--input", ",".join("0" * n), "--json"]
    assert _cli_peak(argv) <= 10 * 2**n * 16  # every one of the 2^14 amplitudes is printed


def test_simulate_state_runs_the_loaded_array_without_a_copy(tmp_path):
    n = 16
    state, qc = tmp_path / "state.txt", tmp_path / "qft.qc"
    # one plain pair a line: numpy's parser reads it, so parsing peaks below the run
    state.write_text("".join(f"{float(a.real)!r} {float(a.imag)!r}\n"
                             for a in _random_amps(16, 2**n)), encoding="utf-8")
    qc.write_text(f"dim 2\nwires {n}\nQFT 1\n", encoding="utf-8")
    # lazy set-up is not counted: a one-wire run first warms the same path
    tiny_state, tiny_qc = tmp_path / "tiny.txt", tmp_path / "tiny.qc"
    tiny_state.write_text("1.0 0.0\n0.0 0.0\n", encoding="utf-8")
    tiny_qc.write_text("dim 2\nwires 1\nQFT 1\n", encoding="utf-8")
    _cli_peak(["simulate", "--circuit", str(tiny_qc), "--state", str(tiny_state)])
    argv = ["simulate", "--circuit", str(qc), "--state", str(state)]
    # the loaded state, a slab buffer, the printed indices and a batch of rows:
    # 2.35x the state; one more array of the state's size would reach 3.35x
    assert _cli_peak(argv) <= 2.5 * 2**n * 16


def test_simulate_label_run_holds_its_state_and_slab_buffers(tmp_path):
    n = 18
    qc = tmp_path / "dense.qc"
    qc.write_text(f"dim 2\nwires {n}\nQFT 1\nCX 1 2\nQFT {n}\n", encoding="utf-8")
    argv = ["simulate", "--circuit", str(qc), "--input", ",".join("0" * n)]
    _cli_peak(argv)  # lazy set-up is not counted
    # the basis state, two slab buffers (QFT on the last wire gathers) and the
    # output's cut a slab at a time: 1.25x the state; a cut that takes |amplitude|
    # of the whole register reaches 1.56x, a second array of the state's size 2.25x
    assert _cli_peak(argv) <= 1.4 * 2**n * 16


def test_simulate_dense_output_is_cut_and_written_a_slab_at_a_time(tmp_path):
    # every one of 2^17 amplitudes is printed: the basis state, the run's slab
    # buffers and one batch of rows take 1.61x the state; the indices of the
    # printed amplitudes, gathered before the first row was written, took 2.0x
    def argv(n):
        qc = tmp_path / f"qft{n}.qc"
        qc.write_text(f"dim 2\nwires {n}\n" + "".join(f"QFT {w}\n" for w in range(1, n + 1)),
                      encoding="utf-8")
        return ["simulate", "--circuit", str(qc), "--input", ",".join("0" * n)]
    _cli_peak(argv(2))  # lazy set-up is not counted
    assert _cli_peak(argv(17)) <= 1.8 * 2**17 * 16


@pytest.mark.parametrize("gate", ["CX", "CZ"])
def test_matrix_of_a_table_or_phase_gate_builds_rows_a_batch_at_a_time(gate):
    # a batch of rows takes 1.2 to 1.4 MB over the import; the dense matrix, 16 MiB
    size = (32 * 32) ** 2 * 16  # the dense matrix at d = 32
    argv = ["-m", "quditswap.cli", "matrix", "--gate", gate, "--d", "32", "--format", "csv"]
    assert rss_over_import(argv) <= size / 4
