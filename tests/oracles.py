"""Slow reference implementations that the package's fast paths are checked against.

Everything here is written with per-index Python loops or dense matrices
straight from the paper's formulas, so it shares no code with the index
tables, phase vectors and wire-axis kernel of the package.  Sizes stay small.
The sampled checks are the exception: they run random states through the
package's gates and kernel, as the identity suite did before it proved the
permutation claims on basis labels.  The ping-pong kernel, the package's
kernel before it ran in place, is kept as the reference of the in-place one;
the identity start of the blocks runs every op of a circuit through it, op 0
included.  The whole-array blocks, ``table_dist`` and ``circuit_unitary`` are
the package's before it ran the blocks a box at a time, the boxed run's
reference.
"""

import json

import numpy as np

from quditswap import circuit
from quditswap.circuit import _label_map, _moved, _run, partial_swap_circuit, swap_circuit
from quditswap.core import DimensionError, GateMatrix, StateVector, _check_budget
from quditswap.gates import GateKind, shared

# basis map of each permutation gate, (control, target) -> (control, target)
_PAIR_MAPS = {
    GateKind.CXTilde: lambda x, y, d: (x, (-x - y) % d),
    GateKind.CXd: lambda x, y, d: (x, (x + y) % d),
    GateKind.CXdDag: lambda x, y, d: (x, (y - x) % d),
    GateKind.SWAP: lambda x, y, d: (y, x),
}


def perm_table(kind: GateKind, d: int) -> tuple[int, ...] | None:
    """Basis permutation of a gate kind, or None when the gate is not one."""
    if kind is GateKind.Xd:
        return tuple((-x) % d for x in range(d))
    if kind is GateKind.Identity:
        return tuple(range(d))
    step = _PAIR_MAPS.get(kind)
    if step is None:
        return None
    perm = [0] * (d * d)
    for x in range(d):
        for y in range(d):
            xo, yo = step(x, y, d)
            perm[x * d + y] = xo * d + yo
    return tuple(perm)


def permutation_matrix(perm) -> np.ndarray:
    """Dense 0/1 matrix of a basis permutation, filled entry by entry."""
    dim = len(perm)
    m = np.zeros((dim, dim), dtype=np.complex128)
    for src, dst in enumerate(perm):
        m[dst, src] = 1.0
    return m


def gate_entries(kind: GateKind, d: int) -> np.ndarray:
    """Dense matrix of a gate kind from the paper's formulas."""
    perm = perm_table(kind, d)
    if perm is not None:
        return permutation_matrix(perm)
    if kind in (GateKind.QFT, GateKind.IQFT):
        sign = 1 if kind is GateKind.QFT else -1
        return np.array(
            [[np.exp(sign * 2j * np.pi * x * k / d) for x in range(d)] for k in range(d)]
        ) / np.sqrt(d)
    sign = 1 if kind is GateKind.CZd else -1
    return np.diag([np.exp(sign * 2j * np.pi * x * y / d) for x in range(d) for y in range(d)])


def root_power_entries(kind: GateKind, d: int) -> np.ndarray:
    """QFT, IQFT, CZ or CZD with one cos and one sin per entry: e^{sign i 2pi ((a b) % d) / d}.

    The QFT's (d, d) matrix (the IQFT its conjugate transpose) or the d^2
    phases of CZ and CZD, the sign inside the angle.  The package's
    root-vector builders must match it bit for bit.
    """
    if kind is GateKind.IQFT:
        return root_power_entries(GateKind.QFT, d).conj().T
    a, b = np.divmod(np.arange(d * d), d)
    sign = -1 if kind is GateKind.CZdDag else 1
    phase = sign * 2.0 * np.pi * ((a * b) % d) / d
    entries = np.cos(phase) + 1j * np.sin(phase)
    return (entries / np.sqrt(d)).reshape(d, d) if kind is GateKind.QFT else entries


def flat_to_digits(flat: int, d: int, n: int) -> tuple[int, ...]:
    """Base-d digits of an n-digit flat label, most significant first."""
    out = []
    for _ in range(n):
        out.append(flat % d)
        flat //= d
    return tuple(reversed(out))


def apply(g: GateMatrix, s: StateVector) -> StateVector:
    """Dense product of a gate's entries with a state's amplitudes."""
    return StateVector(s.d, s.n, g.entries @ s.amps)


def matmul(a: GateMatrix, b: GateMatrix) -> GateMatrix:
    """Product a @ b: two tables compose entry by entry, anything else densely."""
    if a.perm is not None and b.perm is not None:
        return GateMatrix(perm=[a.perm[j] for j in b.perm])
    return GateMatrix(a.entries @ b.entries)


def embedded_perm(op, d: int, n: int, gate_perm) -> list[int]:
    """Full-register permutation table of a permutation gate on given wires."""
    wire_pos = [w - 1 for w in op.wires]
    perm = [0] * d**n
    for j in range(d**n):
        digits = list(flat_to_digits(j, d, n))
        sub = 0
        for p in wire_pos:
            sub = sub * d + digits[p]
        sub_t = gate_perm[sub]
        for p in reversed(wire_pos):
            digits[p] = sub_t % d
            sub_t //= d
        flat = 0
        for x in digits:
            flat = flat * d + x
        perm[j] = flat
    return perm


def embed(op, d: int, n: int) -> np.ndarray:
    """Dense d^n x d^n matrix of a gate on its wires of an n-wire register of dimension d.

    Permutation gates go through :func:`embedded_perm`; other gates are
    contracted against the identity on their own wire axes.
    """
    perm = perm_table(op.kind, d)
    if perm is not None:
        return permutation_matrix(embedded_perm(op, d, n, perm))
    k = len(op.wires)
    wire_pos = [w - 1 for w in op.wires]
    size = d**n
    t = np.eye(size, dtype=np.complex128).reshape((d,) * n + (size,))
    gt = gate_entries(op.kind, d).reshape((d,) * (2 * k))
    out = np.tensordot(gt, t, axes=(list(range(k, 2 * k)), wire_pos))
    out = np.moveaxis(out, list(range(k)), wire_pos)
    return np.ascontiguousarray(out).reshape(size, size)


def unitary(c) -> np.ndarray:
    """Product of the dense embeddings, first op as the rightmost factor."""
    u = np.eye(c.d**c.n, dtype=np.complex128)
    for op in c.ops:
        u = embed(op, c.d, c.n) @ u
    return u


def simulate(c, amps: np.ndarray) -> np.ndarray:
    """Embed each op as a dense matrix and apply it to the amplitudes."""
    for op in c.ops:
        amps = embed(op, c.d, c.n) @ amps
    return amps


def kron(a: GateMatrix, b: GateMatrix) -> GateMatrix:
    """Kronecker product; factor ``a`` acts on the more significant digits."""
    if a.perm is not None and b.perm is not None:
        db = b.dim
        return GateMatrix(perm=[a.perm[j // db] * db + b.perm[j % db] for j in range(a.dim * db)])
    return GateMatrix(np.kron(a.entries, b.entries))


def random_states(rng: np.random.Generator, size: int, trials: int) -> np.ndarray:
    """Random normalised states as columns, two draws and one norm per state."""
    cols = np.empty((size, trials), dtype=np.complex128)
    for j in range(trials):
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        cols[:, j] = v / np.linalg.norm(v)
    return cols


def sampled_partial_swap(d: int, seed: int = 42, trials: int = 20) -> float:
    """Worst deviation of the partial swap from |phi>|0> -> |0>|phi> on random phi."""
    phis = random_states(np.random.default_rng(seed), d, trials)
    amps = np.zeros((d * d, trials), dtype=np.complex128)
    amps[::d] = phis
    out = _run(partial_swap_circuit(d), amps).reshape(d * d, -1)
    out[:d] -= phis  # expected: phi on the rows |0>|y>, zero elsewhere
    return float(np.abs(out).max())


def sampled_random_states(d: int, seed: int = 42, trials: int = 20) -> float:
    """Worst deviation of SWAP from transposing the amplitudes of random states."""
    states = random_states(np.random.default_rng(seed), d * d, trials)
    transposed = states.reshape(d, d, trials).swapaxes(0, 1).reshape(d * d, trials)
    out = _run(swap_circuit(d), states.copy()).reshape(d * d, -1)
    return float(np.abs(out - transposed).max())


def pingpong_run(c, t: np.ndarray, first: int = 0) -> np.ndarray:
    """The ping-pong kernel that ``circuit._run`` was, its slow reference: ``t`` in place,
    returned as (d,)*n + (cols,).

    It applies the same ops to the same operand layouts, from the same built
    gates, and writes no op back where it read it: each op's axes go first by
    ``transpose``, a phase gate scales in place, and any other op reads its
    wire axes as d^k rows from one of two arrays the size of ``t``, copied
    there unless in order already, and writes its result, one ``G @ rows``
    over every column, into the other.  So the axis order changes from op to
    op, and one last copy puts the result back into ``t``.  ``_run`` must
    match it bit for bit.
    """
    t = out = t.reshape((c.d,) * c.n + (-1,))
    a = t.ravel("K")  # t's own array, in memory order
    work = np.empty_like(a)
    for op, g in zip(c.ops[first:], c.gates[first:]):
        k = len(op.wires)
        order = [w - 1 for w in op.wires]
        order += [i for i in range(t.ndim) if i not in order]  # the op's wire axes first
        front = t.transpose(order)
        if g.phases is not None:
            # taken in memory order, the multiply buffers only the phases
            mem = sorted(range(t.ndim), key=front.strides.__getitem__)[::-1]
            ph = g.phases.reshape((c.d,) * k + (1,) * (t.ndim - k)).transpose(mem)
            np.multiply(ph, front.transpose(mem), out=front.transpose(mem))
            continue
        if front.flags.c_contiguous:  # the rows are in order already: write to the other
            a, work = work, a
        else:
            np.copyto(work.reshape(front.shape), front)
        rows, res = work.reshape(c.d**k, -1), a.reshape(c.d**k, -1)
        if g.perm is not None:
            res[g.perm] = rows
        else:
            np.matmul(g.matrix, rows, out=res)
        t = res.reshape(front.shape).transpose(sorted(range(t.ndim), key=order.__getitem__))
    np.copyto(out, t)
    return out


def whole_blocks(c, run=_run):
    """``circuit._blocks`` as one array: (blocks, base, parts, col), the blocks (d,)*n + (d^f,)
    with the free wire axes first in memory, run by ``run`` in one call over every label."""
    d, n = c.d, c.n
    free = sorted({w - 1 for op, g in zip(c.ops, c.gates)
                   for w, moved in zip(op.wires, shared(_moved, g, d, len(op.wires))) if moved})
    _check_budget(d, n + len(free))
    k, labels = len(free), shared(_label_map, d, n, tuple(free))
    blocks = np.empty(d ** (n + k), dtype=np.complex128)
    first = int(c.gates[0].matrix is not None and free == [w - 1 for w in c.ops[0].wires])
    g = c.gates[0].matrix if first else np.eye(d**k)
    np.copyto(blocks.reshape((d,) * k + (-1,) + (d,) * k), g.reshape((d,) * k + (1,) + (d,) * k))
    order = free + [w for w in range(n + 1) if w not in free]  # the label axes in memory order
    t = blocks.reshape((d,) * n + (-1,)).transpose(sorted(range(n + 1), key=order.__getitem__))
    return (run(c, t, first), *labels)


def circuit_unitary(c, blocks=whole_blocks) -> GateMatrix:
    """``circuit.circuit_unitary``, each row's block scattered from one array of blocks."""
    d, n = c.d, c.n
    if all(g.perm is not None for g in c.gates):
        return circuit.circuit_unitary(c)  # the table path, which runs no blocks
    _check_budget(d, 2 * n)
    t, base, parts, _ = blocks(c)
    rows = t.reshape(d**n, -1)
    if parts.size == 1:
        return GateMatrix(phases=rows[:, 0])
    out = np.zeros((d**n, d**n), dtype=np.complex128)
    out[np.arange(d**n)[:, None], base[:, None] + parts] = rows
    return GateMatrix(out)


def table_dist(c, table: GateMatrix, blocks=whole_blocks) -> float:
    """``circuit.table_dist``, the table's 1s taken off one array of blocks, read at once."""
    d, n = c.d, c.n
    if table.perm is None or table.dim != d**n:
        raise DimensionError(f"expected a permutation table on {d**n} labels")
    if all(g.perm is not None for g in c.gates):
        return circuit.table_dist(c, table)  # the table path, which runs no blocks
    t, base, _, col = blocks(c)
    own = base[table.perm] == base  # the columns whose 1 lies in their own block
    t[(*np.unravel_index(table.perm[own], (d,) * n), col[own])] -= 1
    return max(float(np.abs(t).max()), 0.0 if own.all() else 1.0)


def identity_start_blocks(c):
    """``whole_blocks`` without the op-0 write, in label order.

    The identity over the free wires is written at each label's own block
    column of a fresh array of zeros, and the ping-pong kernel applies every
    op to it.  The label map is ``_blocks``' own.
    """
    _, base, parts, col = whole_blocks(c)
    blocks = np.zeros((col.size, col.max() + 1), dtype=np.complex128)
    blocks[np.arange(col.size), col] = 1.0
    blocks = pingpong_run(c, blocks).reshape((c.d,) * c.n + (-1,))
    return blocks, base, parts, col


def delta_sum_max_dev(d: int) -> float:
    """Worst |sum_k e^{i 2pi (x+y+l) k / d} - d delta| over every x, y, l."""
    worst = 0.0
    for x in range(d):
        for y in range(d):
            for l in range(d):
                total = sum(np.exp(2j * np.pi * (x + y + l) * k / d) for k in range(d))
                expected = d if (x + y + l) % d == 0 else 0
                worst = max(worst, float(abs(total - expected)))
    return worst


def format_amplitudes(amps: np.ndarray, as_json: bool) -> str:
    """Amplitude output of ``quditswap simulate``: one dict and one f-string per amplitude."""
    entries = [
        {"index": i, "re": float(a.real), "im": float(a.imag)}
        for i, a in enumerate(amps)
        if abs(a) >= 1e-12
    ]
    if as_json:
        return json.dumps({"amplitudes": entries}) + "\n"
    return "".join(f"{e['index']} {e['re']:.17g} {e['im']:.17g}\n" for e in entries)


def format_matrix(m: np.ndarray, fmt: str) -> str:
    """Output of ``quditswap matrix``: one list, or one f-string, per entry."""
    if fmt == "json":
        return json.dumps([[[float(v.real), float(v.imag)] for v in row] for row in m]) + "\n"
    return "".join(";".join(f"{v.real:.17g},{v.imag:.17g}" for v in row) + "\n" for row in m)


def load_state(path, d: int, n: int) -> StateVector:
    """Amplitude file reader of ``quditswap simulate``, one line and one complex at a time."""
    amps = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"expected 're im' per line, got {raw!r}")
            amps.append(complex(float(parts[0]), float(parts[1])))
    return StateVector(d, n, np.asarray(amps))
