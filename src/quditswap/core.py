"""Gate and state values: index tables, phase vectors, dense matrices.

Conventions used everywhere in the package:

* Wires are numbered 1..n, wire 1 on top.  Wire 1 is the most significant
  mixed-radix digit, so a two-qudit basis state |x>|y> sits at flat index
  ``x * d + y``.
* A gate holds exactly one of three forms: an integer index table for a
  basis permutation, a complex phase vector for a diagonal gate, or a dense
  complex128 matrix (the QFT, and unitaries that are neither).  The dense
  view of a table or a phase vector is built only when ``entries`` is read,
  and identities between tables are asserted exactly, with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# no array the package builds holds more entries: a 4096 x 4096 unitary
MAX_ENTRIES = 4096**2
# entries per slab, set by measurement: a register is checked, cut and run this many at a time
_SLAB = 2**15


class DimensionError(ValueError):
    """Raised for qudit dimensions below 2 or mismatched operand shapes."""


def _check_dim(d: int) -> None:
    if d < 2:
        raise DimensionError(f"qudit dimension must be >= 2, got {d}")


def _check_budget(d: int, k: int) -> None:
    """Refuse d < 2, or an array of k digit axes of size d: d^k > MAX_ENTRIES.

    Called before the array is allocated: a state has k = n, a unitary
    k = 2n, a gate over two qudits k = 2.
    """
    _check_dim(d)
    # d >= 2, so d^k > MAX_ENTRIES once k exceeds its bit length; the power
    # is only taken for k small enough to keep it a small integer
    if k > MAX_ENTRIES.bit_length() or d**k > MAX_ENTRIES:
        raise DimensionError(f"an array of {d}^{k} entries exceeds budget {MAX_ENTRIES}")


@dataclass(frozen=True)
class StateVector:
    """Amplitudes of an n-qudit register over the computational basis."""

    d: int
    n: int
    amps: np.ndarray

    def __post_init__(self):
        _check_dim(self.d)
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.d**self.n,):
            raise DimensionError(
                f"expected {self.d ** self.n} amplitudes, got {amps.shape}"
            )
        for lo in range(0, amps.size, _SLAB):  # one bool per amplitude of a slab at most
            finite = np.isfinite(amps[lo:lo + _SLAB])
            if not finite.all():
                raise ValueError(f"non-finite amplitude at index {lo + np.flatnonzero(~finite)[0]}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def _is_bijection(perm: np.ndarray) -> bool:
    """Whether a vector of n labels hits each of 0..n-1: one bool per label, no sorted copy."""
    if perm.size and not (perm.min() >= 0 and perm.max() < perm.size):
        return False
    hit = np.zeros(perm.size, dtype=bool)
    hit[perm] = True
    return bool(hit.all())


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """A gate on ``dim`` basis states, held in exactly one form.

    * ``perm``: read-only integer table of a basis permutation; ``perm[j]``
      is the target basis index of source index ``j``.
    * ``phases``: the complex diagonal of a diagonal gate.
    * ``matrix``: a dense square matrix, for gates that are neither.
    """

    matrix: np.ndarray | None = None
    perm: np.ndarray | None = None
    phases: np.ndarray | None = None

    def __post_init__(self):
        m, perm, phases = self.matrix, self.perm, self.phases
        if perm is not None:
            perm = np.array(perm, dtype=np.intp)
            if perm.ndim != 1 or not _is_bijection(perm):
                raise ValueError("perm table is not a bijection")
        if phases is not None:
            phases = np.array(phases, dtype=np.complex128)
            if phases.ndim != 1:
                raise DimensionError(f"phases must be a vector, got {phases.shape}")
        if m is not None:
            m = np.asarray(m, dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionError(f"gate matrix must be square, got {m.shape}")
        held = [a for a in (m, perm, phases) if a is not None]
        if len(held) != 1:
            raise ValueError("a gate needs exactly one of matrix, perm, phases")
        # an intp table cannot hold NaN or inf
        if perm is None and not np.all(np.isfinite(held[0])):
            raise ValueError("non-finite matrix entry")
        held[0].setflags(write=False)
        for name, value in (("matrix", m), ("perm", perm), ("phases", phases)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(next(a for a in (self.matrix, self.perm, self.phases) if a is not None))

    @property
    def entries(self) -> np.ndarray:
        """Dense complex128 matrix; built on each read unless the gate is dense."""
        return _dense_rows(self, slice(None))

    def dagger(self) -> "GateMatrix":
        if self.perm is not None:
            # the inverse of a permutation table is its argsort
            return GateMatrix(perm=np.argsort(self.perm))
        if self.phases is not None:
            return GateMatrix(phases=self.phases.conj())
        return GateMatrix(self.matrix.conj().T)


def _check_digits(digits: tuple[int, ...], d: int) -> None:
    for x in digits:
        if not 0 <= x < d:
            raise ValueError(f"digit {x} out of range for d={d}")


def basis_state(digits: tuple[int, ...], d: int) -> StateVector:
    """Computational basis state |x1 x2 ... xn> of n qudits of dimension d."""
    n = len(digits)
    _check_budget(d, n)
    _check_digits(digits, d)
    amps = np.zeros(d**n, dtype=np.complex128)
    amps[np.ravel_multi_index(digits, (d,) * n)] = 1.0
    return StateVector(d, n, amps)


def _column_entries(g: GateMatrix) -> tuple[np.ndarray, np.ndarray | float] | None:
    """(row, value) of each column's one entry: a table's 1s, a phase gate's diagonal."""
    if g.matrix is None:
        return (g.perm, 1.0) if g.perm is not None else (np.arange(g.dim), g.phases)
    return None


def _dense_rows(g: GateMatrix, s: slice) -> np.ndarray:
    """Rows ``s`` of the gate's dense matrix; a table's or a phase gate's built for them alone."""
    if g.matrix is not None:
        return g.matrix[s]
    rows, values = _column_entries(g)
    return np.where(rows == np.arange(g.dim)[s, None], values, 0j)


def max_entry_dist(a: GateMatrix, b: GateMatrix) -> float:
    """Max absolute entrywise deviation; exact equality metric, no phase slack.

    A table or a phase gate holds one entry per column.  Two such gates
    compare column by column, so two tables give exactly 0.0 or 1.0, and
    against a dense matrix they read its entries in place.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ea, eb = _column_entries(a), _column_entries(b)
    if ea is None and eb is None:
        return float(np.max(np.abs(a.entries - b.entries)))
    if ea is None or eb is None:  # |entry - value| on each column's entry, |entry| off it
        (rows, values), dense = (ea, b.matrix) if ea is not None else (eb, a.matrix)
        entry = (rows, np.arange(rows.size))
        dist = np.abs(dense)
        dist[entry] = np.abs(dense[entry] - values)
        return float(dist.max(initial=0.0))
    (ra, va), (rb, vb) = ea, eb
    same = ra == rb  # where the rows differ, each entry meets a 0; two tables give scalars
    on = np.broadcast_to(np.abs(va - vb), same.shape).max(where=same, initial=0.0)
    off = np.broadcast_to(np.maximum(np.abs(va), np.abs(vb)), same.shape)
    return float(max(on, off.max(where=~same, initial=0.0)))
