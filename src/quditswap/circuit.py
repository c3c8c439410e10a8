"""Circuits over an n-qudit register: composition and simulation.

Op order is temporal order (leftmost figure gate first); the circuit unitary
is the product of the ops with the first op as the rightmost factor.  The
kernel ``_run`` is the only code that applies a gate to amplitudes, and may
overwrite the array it is given; ``_follow`` moves labels through tables.
Wires are 1-based with wire 1 on top, matching the subscript convention
where a gate written with control i and target j acts control-on-wire-i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import DimensionError, GateMatrix, StateVector, _check_budget, _check_dim
from .gates import GateKind, gate_matrix


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


def _run(c: Circuit, t: np.ndarray, work: np.ndarray | None = None, first: int = 0) -> np.ndarray:
    """Apply the ops of ``c`` from op ``first`` on to the d^n rows of ``t``; returns (d^n, cols).

    ``t`` is C-contiguous or permutes the axes of a C-contiguous array; the run
    may overwrite it and ``work``, a spare array of its size.  A phase gate scales
    in place; any other op reads its wire axes as d^k rows from one array,
    copied there unless in order already, and writes the other.
    """
    t = t.reshape((c.d,) * c.n + (-1,))
    a = t.ravel("K")  # t's own array, in memory order
    work = np.empty_like(a) if work is None else work
    for op, g in zip(c.ops[first:], c.gates[first:]):
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


def _blocks(c: Circuit) -> tuple[np.ndarray, ...]:
    """(blocks, spare, base, parts, col): the ops run on the identity over the free wires.

    No op changes a kept wire's digit, so row r of the unitary is 0 off its
    block, and ``blocks`` (d^n, d^f) holds the rest: ``blocks[r, j]`` is the
    entry at column ``base[r] + parts[j]``.  ``base`` is each label's kept
    part, ``parts`` the free parts of the block columns, in order, and
    ``col`` each label's own block column.  The blocks and ``spare`` are the
    two halves of one array, made on each call.
    """
    d, n = c.d, c.n
    changed = set().union(*(_changed_wires(c, op, g) for op, g in zip(c.ops, c.gates)))
    free = [w for w in range(n) if w + 1 in changed]
    _check_budget(d, n + len(free))
    size, k = d ** (n + len(free)), len(free)
    half = np.empty((2, size), dtype=np.complex128)
    labels = np.arange(d**n)
    place = d ** np.arange(n - 1, -1, -1)[free]  # the place value of each free digit
    digits = labels // place[:, None] % d  # (f, d^n): each label's free digits
    base = labels - place @ digits
    parts = np.flatnonzero(base == 0)  # the labels whose kept digits are all 0
    col = d ** np.arange(k - 1, -1, -1) @ digits
    # the identity once per kept part, free wire axes first; a dense op 0 on the
    # free wires alone is its own product with the identity, written in its place
    first = int(c.gates[0].matrix is not None and free == [w - 1 for w in c.ops[0].wires])
    g = c.gates[0].matrix if first else np.eye(d**k)
    np.copyto(half[0].reshape((d,) * k + (-1,) + (d,) * k), g.reshape((d,) * k + (1,) + (d,) * k))
    blocks = _run(c, np.moveaxis(half[0].reshape((d,) * n + (-1,)), range(k), free), half[1], first)
    return blocks, half[1] if np.may_share_memory(blocks, half[0]) else half[0], base, parts, col


def circuit_unitary(c: Circuit) -> GateMatrix:
    """Ordered product of embedded ops; first op is the rightmost factor.

    A circuit of permutation gates gives an exact table, without a
    d^n x d^n array, and one that changes no digit a phase vector.
    Otherwise the unitary is block diagonal in every kept wire, and
    ``_blocks``' map scatters each row's block into the result.  Its
    d^n x d^n entries are checked against the budget first: d^n <= 4096.
    """
    _check_budget(c.d, 2 * c.n)
    d, n = c.d, c.n
    if all(g.perm is not None for g in c.gates):
        # entry i of the run is the label that lands on i: the inverse table
        return GateMatrix(perm=_run(c, np.arange(d**n))[:, 0]).dagger()
    blocks, _, base, parts, _ = _blocks(c)
    if parts.size == 1:  # no free wire: each row's block is its diagonal entry
        return GateMatrix(phases=blocks[:, 0])
    out = np.zeros((d**n, d**n), dtype=np.complex128)
    out[np.arange(d**n)[:, None], base[:, None] + parts] = blocks
    return GateMatrix(out)


def table_dist(c: Circuit, table: GateMatrix) -> float:
    """``max_entry_dist(circuit_unitary(c), table)``, without a d^n x d^n array.

    Blocks are read as |b| off the table's 1s and |b - 1| on them; a row whose
    1 lies outside its block adds 1.0, as the unitary holds 0 there; the
    spare half of ``_blocks``' array holds those distances.
    """
    d, n = c.d, c.n
    if table.perm is None or table.dim != d**n:
        raise DimensionError(f"expected a permutation table on {d**n} labels")
    if all(g.perm is not None for g in c.gates):
        _check_budget(d, n)  # two tables, exactly; the run holds d^n labels, no unitary
        landed = _run(c, np.arange(d**n))[:, 0]  # entry i: the label that lands on i
        return 0.0 if np.array_equal(table.perm[landed], np.arange(d**n)) else 1.0
    blocks, spare, base, _, col = _blocks(c)
    own = base[table.perm] == base  # the columns whose 1 lies in their own block
    blocks[table.perm[own], col[own]] -= 1
    dist = np.abs(blocks, out=spare.view(np.float64)[:blocks.size].reshape(blocks.shape))
    return max(float(dist.max()), 0.0 if own.all() else 1.0)


def simulate(c: Circuit, s: StateVector) -> StateVector:
    """Apply the circuit gate by gate; agrees with the full unitary product."""
    if s.d != c.d or s.n != c.n:
        raise DimensionError(
            f"state ({s.d}, {s.n}) does not match circuit ({c.d}, {c.n})"
        )
    _check_budget(c.d, c.n)
    with np.errstate(over="ignore", invalid="ignore"):  # StateVector names a non-finite result
        amps = _run(c, s.amps.copy())[:, 0]
    return StateVector(c.d, c.n, amps)


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
    expansion = cx_tilde_decomposition(c.d).ops  # wire 1 the control, wire 2 the target
    ops: list[GateOp] = []
    for op in c.ops:
        if op.kind is GateKind.CXTilde:
            ops += (GateOp(e.kind, tuple(op.wires[w - 1] for w in e.wires)) for e in expansion)
        else:
            ops.append(op)
    return Circuit(c.d, c.n, tuple(ops))
