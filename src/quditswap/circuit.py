"""Circuits over an n-qudit register: composition and simulation.

Op order is temporal order (leftmost figure gate first); the circuit unitary
is the product of the ops with the first op as the rightmost factor.  The
kernel ``_run`` is the only code that applies a gate to amplitudes, and may
overwrite the array it is given; ``_follow`` moves labels through tables.
Wires are 1-based with wire 1 on top, matching the subscript convention
where a gate written with control i and target j acts control-on-wire-i.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    MAX_STATE_SIZE,
    MAX_UNITARY_DIM,
    DimensionError,
    GateMatrix,
    StateVector,
    _check_dim,
)
from .gates import (
    GateKind,
    cx_d,
    cx_d_dag,
    cx_tilde,
    cz_d,
    cz_d_dag,
    identity_gate,
    iqft,
    qft,
    swap_ref,
    x_d,
)

_BUILDERS = {
    GateKind.QFT: qft,
    GateKind.IQFT: iqft,
    GateKind.CZd: cz_d,
    GateKind.CZdDag: cz_d_dag,
    GateKind.CXTilde: cx_tilde,
    GateKind.CXd: cx_d,
    GateKind.CXdDag: cx_d_dag,
    GateKind.Xd: x_d,
    GateKind.SWAP: swap_ref,
    GateKind.Identity: identity_gate,
}


def gate_matrix(kind: GateKind, d: int) -> GateMatrix:
    """Canonical matrix of a gate kind at dimension d (control digit first)."""
    return _BUILDERS[kind](d)


@dataclass(frozen=True)
class GateOp:
    """A named gate on specific wires, control first; its circuit gives it d."""

    kind: GateKind
    wires: tuple[int, ...]

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(wires) != self.kind.arity:
            raise ValueError(
                f"{self.kind.value} takes {self.kind.arity} wire(s), got {len(wires)}"
            )
        if len(set(wires)) != len(wires):
            raise ValueError(f"duplicate wires in {wires}")
        if any(w < 1 for w in wires):
            raise ValueError(f"wires are 1-based, got {wires}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over (d, n); immutable value."""

    d: int
    n: int
    ops: tuple[GateOp, ...] = field(default=())

    def __post_init__(self):
        _check_dim(self.d)
        if self.n < 1:
            raise ValueError(f"wire count must be >= 1, got {self.n}")
        ops = tuple(self.ops)
        object.__setattr__(self, "ops", ops)
        for op in ops:
            if any(w > self.n for w in op.wires):
                raise ValueError(f"wire out of range in {op.wires} for n={self.n}")

    @cached_property
    def gates(self) -> tuple[GateMatrix, ...]:
        """The built gate of each op, in op order; each gate kind built once per circuit."""
        built = {k: gate_matrix(k, self.d) for k in dict.fromkeys(op.kind for op in self.ops)}
        return tuple(built[op.kind] for op in self.ops)


def _check_budget(d: int, n: int, budget: int = MAX_STATE_SIZE) -> None:
    # d >= 2, so d^n > budget once n exceeds budget's bit length; the power
    # is only taken for n small enough to keep it a small integer
    if n > budget.bit_length() or d**n > budget:
        raise DimensionError(f"register size d^n = {d}^{n} exceeds budget {budget}")


def _run(c: Circuit, t: np.ndarray) -> np.ndarray:
    """Apply every op of ``c`` to the d^n rows of ``t``; returns (d^n, cols).

    May overwrite ``t``: the run holds it and one work array of its size.  A
    phase gate scales in place; any other op reads its wire axes as d^k rows
    from one array, copied there unless in order already, and writes the other.
    """
    a = t.reshape(-1)
    work = np.empty_like(a)
    t = a.reshape((c.d,) * c.n + (-1,))
    for op, g in zip(c.ops, c.gates):
        k = len(op.wires)
        axes = [w - 1 for w in op.wires]
        front = np.moveaxis(t, axes, range(k))
        if g.phases is not None:
            # taken in memory order, the multiply buffers only the phases
            order = np.argsort(front.strides)[::-1]
            ph = g.phases.reshape((c.d,) * k + (1,) * (t.ndim - k)).transpose(order)
            np.multiply(ph, front.transpose(order), out=front.transpose(order))
            continue
        if front.flags.c_contiguous:  # the rows are in order already: write to the other
            a, work = work, a
        else:
            np.copyto(work.reshape(front.shape), front)
        rows, out = work.reshape(c.d**k, -1), a.reshape(c.d**k, -1)
        if g.perm is not None:
            out[g.perm] = rows
        else:
            np.matmul(g.matrix, rows, out=out)
        t = np.moveaxis(out.reshape(front.shape), range(k), axes)
    if not t.flags.c_contiguous:  # one last copy puts the axes back in order
        np.copyto(work.reshape(t.shape), t)
        t = work.reshape(t.shape)
    return t.reshape(c.d**c.n, -1)


def _follow(c: Circuit, digits: np.ndarray) -> np.ndarray:
    """The labels that m basis labels land on under ``c``, whose gates are all tables.

    ``digits`` and the result are (n, m): one label per column, wire 1 in row 0.
    """
    digits = np.array(digits, dtype=np.intp)
    for op, g in zip(c.ops, c.gates):
        rows, shape = [w - 1 for w in op.wires], (c.d,) * len(op.wires)
        digits[rows] = np.unravel_index(g.perm[np.ravel_multi_index(digits[rows], shape)], shape)
    return digits


def _changed_wires(c: Circuit, op: GateOp, g: GateMatrix) -> set[int]:
    """Wires of ``op`` in ``c`` whose digit ``g`` may change, read from the built gate.

    Phases change no digit; a table changes a digit some label maps out of;
    a dense gate changes a digit with a nonzero entry between labels that
    differ in it.
    """
    if g.phases is not None:
        return set()
    digits = np.unravel_index(np.arange(g.dim), (c.d,) * len(op.wires))
    if g.perm is not None:
        return {w for w, x in zip(op.wires, digits) if np.any(x[g.perm] != x)}
    return {w for w, x in zip(op.wires, digits)
            if np.any(g.matrix[x[:, None] != x] != 0)}


def _tied(a: np.ndarray, n: int, col_wires: list[int], tied: set[int]) -> np.ndarray:
    """Writable view of ``a`` in which each tied wire's column digit is its row digit.

    ``a`` has n row axes, one per wire, then one column axis per entry of
    ``col_wires``; the view keeps the row axes and the untied column axes.
    """
    rows = string.ascii_letters[:n]
    cols = [rows[w] if w in tied else string.ascii_letters[n + j]
            for j, w in enumerate(col_wires)]
    untied = "".join(x for x in cols if x not in rows)
    return np.einsum(f"{rows}{''.join(cols)}->{rows}{untied}", a)


def _blocks(c: Circuit) -> tuple[np.ndarray, list[int], list[int]]:
    """The ops run on the identity over the free wires, and the kept and free wires.

    No op changes a kept wire's digit.  Blocks ``(d,)*n + (d,)*f`` hold every
    entry off 0: a row label, then the free digits of a column in its block.
    """
    d, n = c.d, c.n
    changed = set().union(*(_changed_wires(c, op, g) for op, g in zip(c.ops, c.gates)))
    free = [w for w in range(n) if w + 1 in changed]
    kept = [w for w in range(n) if w + 1 not in changed]
    _check_budget(d, n + len(free))
    blocks = np.zeros((d,) * (n + len(free)), dtype=np.complex128)
    _tied(blocks, n, free, set(free))[...] = 1.0  # identity on the free wires
    return _run(c, blocks).reshape(blocks.shape), kept, free


def circuit_unitary(c: Circuit) -> GateMatrix:
    """Ordered product of embedded ops; first op is the rightmost factor.

    A circuit of permutation gates gives an exact table, without a
    d^n x d^n array, and one that changes no digit a phase vector.
    Otherwise the unitary is block diagonal in every kept wire, and the
    blocks are scattered into the result.
    """
    _check_budget(c.d, c.n, MAX_UNITARY_DIM)
    d, n = c.d, c.n
    if all(g.perm is not None for g in c.gates):
        # entry i of the run is the label that lands on i: the inverse table
        return GateMatrix(perm=_run(c, np.arange(d**n))[:, 0]).dagger()
    blocks, kept, free = _blocks(c)
    if not free:
        return GateMatrix(phases=blocks.reshape(-1))
    out = np.zeros((d,) * (2 * n), dtype=np.complex128)
    _tied(out, n, list(range(n)), set(kept))[...] = blocks
    return GateMatrix(out.reshape(d**n, d**n))


def table_dist(c: Circuit, table: GateMatrix) -> float:
    """``max_entry_dist(circuit_unitary(c), table)``, without a d^n x d^n array.

    Blocks are read as |b| off the table's support and |b - 1| on it; a
    target label outside its column's block adds 1.0, as the unitary holds 0.
    """
    d, n = c.d, c.n
    if table.perm is None or table.dim != d**n:
        raise DimensionError(f"expected a permutation table on {d**n} labels")
    if all(g.perm is not None for g in c.gates):
        _check_budget(d, n)  # two tables, exactly; the run holds d^n labels, no unitary
        landed = _run(c, np.arange(d**n))[:, 0]  # entry i: the label that lands on i
        return 0.0 if np.array_equal(table.perm[landed], np.arange(d**n)) else 1.0
    blocks, kept, free = _blocks(c)
    digits = np.array(np.unravel_index(np.arange(d**n), (d,) * n))
    src = digits[:, np.argsort(table.perm)]  # digits of the column landing on each row
    rows = np.flatnonzero((src[kept] == digits[kept]).all(axis=0))
    cols = (d ** np.arange(len(free))[::-1] @ src[free])[rows]  # its place in the block
    flat = blocks.reshape(d**n, -1)
    flat[rows, cols] -= 1
    return max(float(np.abs(flat).max()), 0.0 if rows.size == d**n else 1.0)


def simulate(c: Circuit, s: StateVector) -> StateVector:
    """Apply the circuit gate by gate; agrees with the full unitary product."""
    if s.d != c.d or s.n != c.n:
        raise DimensionError(
            f"state ({s.d}, {s.n}) does not match circuit ({c.d}, {c.n})"
        )
    _check_budget(c.d, c.n)
    return StateVector(c.d, c.n, _run(c, s.amps.copy())[:, 0])


def swap_circuit(d: int) -> Circuit:
    """Three negated-sum gates alternating control wires; a full qudit SWAP."""
    return Circuit(d, 2, (
        GateOp(GateKind.CXTilde, (2, 1)),
        GateOp(GateKind.CXTilde, (1, 2)),
        GateOp(GateKind.CXTilde, (2, 1)),
    ))


def swap_circuit_alt(d: int) -> Circuit:
    """Upside-down variant of :func:`swap_circuit`; also a full SWAP."""
    return Circuit(d, 2, (
        GateOp(GateKind.CXTilde, (1, 2)),
        GateOp(GateKind.CXTilde, (2, 1)),
        GateOp(GateKind.CXTilde, (1, 2)),
    ))


def cx_tilde_decomposition(d: int) -> Circuit:
    """QFT on the target, controlled phase, QFT on the target again."""
    return Circuit(d, 2, (
        GateOp(GateKind.QFT, (2,)),
        GateOp(GateKind.CZd, (1, 2)),
        GateOp(GateKind.QFT, (2,)),
    ))


def cx_tilde_decomposition_alt(d: int) -> Circuit:
    """Adjoint decomposition (IQFT, inverse phase, IQFT); equal by involution."""
    return Circuit(d, 2, (
        GateOp(GateKind.IQFT, (2,)),
        GateOp(GateKind.CZdDag, (1, 2)),
        GateOp(GateKind.IQFT, (2,)),
    ))


def asymmetric_swap_circuit(d: int) -> Circuit:
    """SWAP from modular adder/subtractor gates plus a complement.

    Basis trace: (x, y) -> (x, x+y) -> (-y, x+y) -> (-y, x) -> (y, x),
    everything mod d.  Validated by brute-force comparison against the SWAP
    permutation in the verification suite.
    """
    return Circuit(d, 2, (
        GateOp(GateKind.CXd, (1, 2)),
        GateOp(GateKind.CXdDag, (2, 1)),
        GateOp(GateKind.CXd, (1, 2)),
        GateOp(GateKind.Xd, (1,)),
    ))


def partial_swap_circuit(d: int) -> Circuit:
    """Maps |phi>|0> to |0>|phi> for any phi; not a full SWAP."""
    return Circuit(d, 2, (
        GateOp(GateKind.CXd, (1, 2)),
        GateOp(GateKind.CXdDag, (2, 1)),
    ))


def expand_cx_tilde(c: Circuit) -> Circuit:
    """Rewrite each negated-sum gate into its QFT / phase / QFT expansion."""
    ops: list[GateOp] = []
    for op in c.ops:
        if op.kind is GateKind.CXTilde:
            control, target = op.wires
            ops.append(GateOp(GateKind.QFT, (target,)))
            ops.append(GateOp(GateKind.CZd, (control, target)))
            ops.append(GateOp(GateKind.QFT, (target,)))
        else:
            ops.append(op)
    return Circuit(c.d, c.n, tuple(ops))
