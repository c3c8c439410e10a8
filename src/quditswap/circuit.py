"""Circuits over an n-qudit register: composition and simulation.

Op order is temporal order (leftmost figure gate first); the circuit unitary
is the product of the ops with the first op as the rightmost factor.  The
kernel ``_run`` alone applies gates to amplitudes, in place on the one array
it is given; ``_follow`` moves labels through tables.  ``_blocks`` runs a
circuit on the identity over the wires it changes, one box of wire 1's
digits at a time when its ops on wire 1 are phase gates, for ``circuit_unitary``
and ``table_dist`` to read as each box is done.  Wires are 1-based, wire 1 on
top, as in the subscript convention: a gate written with control i and
target j acts control-on-wire-i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import _SLAB, DimensionError, GateMatrix, StateVector, _check_budget, _check_dim
from .gates import GateKind, gate_matrix, shared

# entries per box of ``_blocks`` and per buffer of its ops at most, set by measurement: 125 KiB,
# under glibc's 128 KiB mmap threshold, so the buffers come from the heap and are reused
_BOX = 8000


@dataclass(frozen=True)
class GateOp:
    """A named gate on specific wires, control first; its circuit gives it d."""

    kind: GateKind
    wires: tuple[int, ...]

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(wires) != self.kind.arity:
            raise ValueError(f"{self.kind.value} takes {self.kind.arity} wire(s), got {len(wires)}")
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
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if max(op.wires) > self.n:
                raise ValueError(f"wire out of range in {op.wires} for n={self.n}")

    @cached_property
    def gates(self) -> tuple[GateMatrix, ...]:
        """The built gate of each op, in op order; each kind built once per circuit or gate set."""
        built = {k: gate_matrix(k, self.d) for k in dict.fromkeys(op.kind for op in self.ops)}
        return tuple(built[op.kind] for op in self.ops)


def _run(c: Circuit, t: np.ndarray, first: int = 0, lo: int | None = None) -> np.ndarray:
    """Apply the ops of ``c`` from op ``first`` to ``t``, C-contiguous or (d,)*n + (cols,), in
    place, each at its axes put first by ``transpose``; return ``t`` as (d,)*n + (cols,).

    A phase gate scales them where they lie, its phases at wire 1's digits ``lo:lo + h`` (all
    outside a box); ``_apply`` takes a table or dense op.  Given ``lo``, ``t`` is a box of
    ``_blocks``, (h,) + (d,)*(n-1) + (cols,): the labels whose wire 1 digit is lo..lo+h-1, on
    which only phase gates act, so any other op's columns are a range of its whole call's.
    """
    d = c.d
    t, lo = (t.reshape((d,) * c.n + (-1,)), 0) if lo is None else (t, lo)
    h = t.shape[0]
    for op, g in zip(c.ops[first:], c.gates[first:]):
        wires = [w - 1 for w in op.wires]
        k, front = len(wires), t.transpose(wires + [i for i in range(t.ndim) if i not in wires])
        if g.phases is not None:  # taken in memory order, the multiply buffers only the phases
            cut = (slice(None),) * wires.index(0) + (slice(lo, lo + h),) if 0 in wires else ()
            mem = sorted(range(front.ndim), key=front.strides.__getitem__)[::-1]
            ph = g.phases.reshape((d,) * k + (1,) * (front.ndim - k))[cut].transpose(mem)
            np.multiply(ph, front.transpose(mem), out=front.transpose(mem))
        else:  # the whole call's columns are d / h times the box's, multiplied before divided
            cols = t.size // d**k
            _apply(g, front, k, lo * cols // h, d * cols // h)
    return t


def _apply(g: GateMatrix, front: np.ndarray, k: int, offset: int, whole: int) -> None:
    """The slab kernel of a table or a dense matrix ``g``: apply it to the k leading axes of
    ``front``, in place.

    The d^k rows and W columns (the other axes, in order) go one box of ``_slabs`` at a
    time: read where it lies if ``front`` is C-contiguous and the box needs no pad,
    else gathered into a slab buffer, then through a second buffer and back.  The
    columns are columns ``offset`` on of a call over ``whole`` columns.
    OpenBLAS computes a column by its 8-wide panel, so a dense box keeps the bits of one
    ``G @ rows`` over all of them: zero columns put it at its places mod 8, fill its last
    panel unless it ends the whole call, and lead a lone column, else a matrix-vector product.
    """
    rows = g.dim
    cols = front.size // rows
    flat = front.flags.c_contiguous  # then a box is a column range of a 2-D view
    src, lead = (front.reshape(rows, cols), 1) if flat else (front, k)
    spans, width, gather = [], 0, not flat
    for box, lo, w in _slabs(src.shape[lead:], max(16, _SLAB // rows // 8 * 8)):
        pad = 0 if g.perm is not None else (offset + lo) % 8 or (8 if w == 1 and whole > 1 else 0)
        end = pad + w if g.perm is not None or offset + lo + w == whole else -(-(pad + w) // 8) * 8
        spans.append((src[(slice(None),) * lead + box], pad, w, end))
        width, gather = max(width, end), gather or end > w  # the widest box; one to pad
    ins = np.empty((rows, width), front.dtype) if gather else None
    outs = np.empty((rows, width), front.dtype)
    for part, pad, w, end in spans:
        x, y = part, outs[:, :end]
        if not flat or end > w:  # gathered: read where it lies unless padded
            x = ins[:, :end]
            if end > w:
                x[:, :pad] = x[:, pad + w:] = 0
            np.copyto(x[:, pad:pad + w].reshape(part.shape), part)
        if g.perm is not None:
            y[g.perm] = x
        else:
            np.matmul(g.matrix, x, out=y)
        np.copyto(part, y[:, pad:pad + w].reshape(part.shape))


def _slabs(shape: tuple[int, ...], cap: int) -> list:
    """The columns of ``shape``, in C order, as boxes (index, first column, width): a prefix of
    the axes fixed, a range of the next, all the rest; ``cap`` + 7 columns at most, 8 unless all."""
    j, tail = len(shape), 1
    while j > 1 and tail * shape[j - 1] <= cap:  # axes j.. fit in one box
        j -= 1
        tail *= shape[j]
    size = shape[j - 1]  # ranges of axis j - 1, cap // tail indices each, none under 8 columns
    if size * tail <= cap:
        return [((slice(None),), 0, size * tail)]
    cuts = [a for a in range(0, size, cap // tail) if a == 0 or (size - a) * tail >= 8]
    return [((*head, slice(a, b)), (i * size + a) * tail, (b - a) * tail)
            for i, head in enumerate(itertools.product(*map(range, shape[: j - 1])))
            for a, b in zip(cuts, cuts[1:] + [size])]


def _follow(c: Circuit, digits: np.ndarray) -> np.ndarray:
    """The labels that m basis labels land on under ``c``, whose gates are all tables.

    ``digits`` and the result are (n, m): one label per column, wire 1 in row 0.
    """
    digits = np.array(digits, dtype=np.intp)
    for op, g in zip(c.ops, c.gates):
        rows, shape = [w - 1 for w in op.wires], (c.d,) * len(op.wires)
        digits[rows] = np.unravel_index(g.perm[np.ravel_multi_index(digits[rows], shape)], shape)
    return digits


def _moved(g: GateMatrix, d: int, k: int) -> tuple[bool, ...]:
    """Whether ``g``, a gate on k qudits, may change each of its digits: phases change
    none; a table changes a digit some label maps out of; a dense gate changes a digit
    with a nonzero entry between labels that differ in it."""
    if g.phases is not None:
        return (False,) * k
    digits = np.unravel_index(np.arange(g.dim), (d,) * k)
    if g.perm is not None:
        return tuple(bool((x[g.perm] != x).any()) for x in digits)
    return tuple(bool(g.matrix[x[:, None] != x].any()) for x in digits)


def _label_map(d: int, n: int, free: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """``_blocks``' (base, parts, col) for the free wire axes ``free``."""
    labels = np.arange(d**n)
    place = d ** np.arange(n - 1, -1, -1)[list(free)]  # the place value of each free digit
    digits = labels // place[:, None] % d  # (f, d^n): each label's free digits
    base = labels - place @ digits
    # parts: the labels whose kept digits are all 0
    return base, np.flatnonzero(base == 0), d ** np.arange(len(free) - 1, -1, -1) @ digits


def _blocks(c: Circuit) -> tuple:
    """(base, parts, col, boxes): the ops run on the identity over the free wires, a box at a time.

    No op changes a kept wire's digit, so row r of the unitary is 0 off its block, whose entry
    at block column j is the unitary's at column ``base[r] + parts[j]``: ``base`` is each
    label's kept part, ``parts`` the free parts of the block columns, in order, and ``col``
    each label's own block column.  ``boxes`` yields (rows, t): the blocks of the row labels
    ``rows``, as (h,) + (d,)*(n-1) + (d^f,), free wire axes first in memory, in one buffer
    that each box reuses, so a box is read before the next is asked for.  When every op on
    wire 1 is a phase gate, a box is a range of its digits, ``_BOX`` entries with a dense op's
    pad at most; else it is every label, d^(n+f) entries checked against the budget first,
    even when a table on wire 1 keeps its digit.
    """
    d, n = c.d, c.n
    free = sorted({w - 1 for op, g in zip(c.ops, c.gates)
                   for w, moved in zip(op.wires, shared(_moved, g, d, len(op.wires))) if moved})
    k = len(free)
    _check_budget(d, n + k)
    per = d ** (n + k - 1)  # entries per digit of wire 1
    # boxes of wire 1's digits, unless an op on wire 1 is not a phase gate or a dense op has
    # under 8 columns a digit (a box edge might cut its last partial panel); a dense op whose
    # columns of a digit are not whole panels adds 14 pad columns to a box at most
    split, pad = all(g.phases is not None for op, g in zip(c.ops, c.gates) if 1 in op.wires), 0
    for g in c.gates:
        if g.matrix is not None:  # dim = d^k rows, per // dim columns a digit
            dim = len(g.matrix)
            split = split and per // dim >= 8
            pad = max(pad, 14 * dim if per // dim % 8 else 0)
    step = max(1, (_BOX - pad) // per) if split else d
    labels = shared(_label_map, d, n, tuple(free))
    buf = np.empty(min(step, d) * per, dtype=np.complex128)
    # the identity once per kept part, free wire axes first; a dense op 0 on the
    # free wires alone is its own product with the identity, written in its place
    first = int(c.gates[0].matrix is not None and free == [w - 1 for w in c.ops[0].wires])
    g = c.gates[0].matrix if first else np.eye(d**k)
    order = free + [w for w in range(n + 1) if w not in free]  # the label axes in memory order
    back = sorted(range(n + 1), key=order.__getitem__)

    def boxes():
        for lo in range(0, d, step):
            h = min(step, d - lo)
            blocks = buf[:h * per]
            np.copyto(blocks.reshape((d,) * k + (-1,) + (d,) * k), g.reshape((d,) * k + (1,) + (d,) * k))
            t = blocks.reshape([h if w == 0 else d**k if w == n else d for w in order])
            rows = slice(lo * d ** (n - 1), (lo + h) * d ** (n - 1))
            yield rows, _run(c, t.transpose(back), first, lo)
    return (*labels, boxes())


def circuit_unitary(c: Circuit) -> GateMatrix:
    """Ordered product of embedded ops; first op is the rightmost factor.

    A circuit of permutation gates gives an exact table, without a d^n x d^n
    array, and one that changes no digit a phase vector.  Otherwise the unitary
    is block diagonal in every kept wire, and ``_blocks``' map scatters each
    row's block into the result, a box at a time; its d^n x d^n entries are
    checked against the budget first: d^n <= 4096.
    """
    _check_budget(c.d, 2 * c.n)
    d, n = c.d, c.n
    if all(g.perm is not None for g in c.gates):
        # entry i of the run is the label that lands on i: the inverse table
        return GateMatrix(perm=np.argsort(_run(c, np.arange(d**n)).ravel()))
    base, parts, _, boxes = _blocks(c)
    if parts.size == 1:  # no free wire: each row's block is its diagonal entry
        return GateMatrix(phases=np.concatenate([t.flatten() for _, t in boxes]))  # copies
    out = np.zeros((d**n, d**n), dtype=np.complex128)
    for rows, t in boxes:  # each a copy in label order, smaller than the result
        out[np.arange(d**n)[rows, None], base[rows, None] + parts] = t.reshape(-1, parts.size)
    return GateMatrix(out)


def table_dist(c: Circuit, table: GateMatrix) -> float:
    """``max_entry_dist(circuit_unitary(c), table)``, without a d^n x d^n array.

    Each box of blocks is read as |b| off the table's 1s and |b - 1| on them, in
    memory order and ``_SLAB`` entries at a time, as ``_blocks`` finishes it; a row
    whose 1 lies outside its block adds 1.0, as the unitary holds 0 there.
    """
    d, n = c.d, c.n
    if table.perm is None or table.dim != d**n:
        raise DimensionError(f"expected a permutation table on {d**n} labels")
    if all(g.perm is not None for g in c.gates):
        _check_budget(d, n)  # two tables, exactly; the run holds d^n labels, no unitary
        landed = _run(c, np.arange(d**n)).ravel()  # entry i: the label that lands on i
        return 0.0 if np.array_equal(table.perm[landed], np.arange(d**n)) else 1.0
    base, _, col, boxes = _blocks(c)
    src = np.empty_like(table.perm)
    src[table.perm] = np.arange(d**n)  # the column of each row's 1
    own, to = base[src] == base, col[src]  # whether it lies in the row's block, and where
    dist = 0.0 if own.all() else 1.0
    for rows, t in boxes:
        r = np.flatnonzero(own[rows])  # the box's, counted from its first
        t[(*np.unravel_index(r, t.shape[:-1]), to[rows][r])] -= 1
        flat = t.ravel("K")
        for i in range(0, flat.size, _SLAB):
            dist = max(dist, float(np.abs(flat[i:i + _SLAB]).max()))
    return dist


def simulate(c: Circuit, s: StateVector) -> StateVector:
    """Apply the circuit gate by gate; agrees with the full unitary product."""
    if s.d != c.d or s.n != c.n:
        raise DimensionError(f"state ({s.d}, {s.n}) does not match circuit ({c.d}, {c.n})")
    _check_budget(c.d, c.n)
    with np.errstate(over="ignore", invalid="ignore"):  # StateVector names a non-finite result
        return StateVector(c.d, c.n, _run(c, s.amps.copy()).ravel())


# the ops of each circuit builder: an op holds no d, so one tuple serves every d
_SWAP_OPS = tuple(GateOp(GateKind.CXTilde, w) for w in ((2, 1), (1, 2), (2, 1)))
_SWAP_ALT_OPS = tuple(GateOp(GateKind.CXTilde, w) for w in ((1, 2), (2, 1), (1, 2)))
_DECOMPOSITION_OPS = (
    GateOp(GateKind.QFT, (2,)), GateOp(GateKind.CZd, (1, 2)), GateOp(GateKind.QFT, (2,))
)
_DECOMPOSITION_ALT_OPS = (
    GateOp(GateKind.IQFT, (2,)), GateOp(GateKind.CZdDag, (1, 2)), GateOp(GateKind.IQFT, (2,))
)
_PARTIAL_SWAP_OPS = (GateOp(GateKind.CXd, (1, 2)), GateOp(GateKind.CXdDag, (2, 1)))
_ASYMMETRIC_SWAP_OPS = (*_PARTIAL_SWAP_OPS, GateOp(GateKind.CXd, (1, 2)), GateOp(GateKind.Xd, (1,)))


def swap_circuit(d: int) -> Circuit:
    """Three negated-sum gates alternating control wires; a full qudit SWAP."""
    return Circuit(d, 2, _SWAP_OPS)


def swap_circuit_alt(d: int) -> Circuit:
    """Upside-down variant of :func:`swap_circuit`; also a full SWAP."""
    return Circuit(d, 2, _SWAP_ALT_OPS)


def cx_tilde_decomposition(d: int) -> Circuit:
    """QFT on the target, controlled phase, QFT on the target again."""
    return Circuit(d, 2, _DECOMPOSITION_OPS)


def cx_tilde_decomposition_alt(d: int) -> Circuit:
    """Adjoint decomposition (IQFT, inverse phase, IQFT); equal by involution."""
    return Circuit(d, 2, _DECOMPOSITION_ALT_OPS)


def asymmetric_swap_circuit(d: int) -> Circuit:
    """SWAP from modular adder/subtractor gates plus a complement.

    Basis trace: (x, y) -> (x, x+y) -> (-y, x+y) -> (-y, x) -> (y, x),
    everything mod d.  Validated by brute-force comparison against the SWAP
    permutation in the verification suite.
    """
    return Circuit(d, 2, _ASYMMETRIC_SWAP_OPS)


def partial_swap_circuit(d: int) -> Circuit:
    """Maps |phi>|0> to |0>|phi> for any phi; not a full SWAP."""
    return Circuit(d, 2, _PARTIAL_SWAP_OPS)


def expand_cx_tilde(c: Circuit) -> Circuit:
    """Rewrite each negated-sum gate into its QFT / phase / QFT expansion."""
    ops: list[GateOp] = []
    for op in c.ops:  # wire 1 of the expansion is the control, wire 2 the target
        ops += ([GateOp(e.kind, tuple(op.wires[w - 1] for w in e.wires))
                 for e in _DECOMPOSITION_OPS] if op.kind is GateKind.CXTilde else [op])
    return Circuit(c.d, c.n, tuple(ops))
