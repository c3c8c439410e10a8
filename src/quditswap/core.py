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
        finite = np.isfinite(amps)
        if not finite.all():
            raise ValueError(f"non-finite amplitude at index {np.flatnonzero(~finite)[0]}")
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
        if not np.all(np.isfinite(held[0])):
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
        if self.matrix is not None:
            return self.matrix
        if self.phases is not None:
            return np.diag(self.phases)
        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        m[self.perm, np.arange(self.dim)] = 1.0
        return m

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


def max_entry_dist(a: GateMatrix, b: GateMatrix) -> float:
    """Max absolute entrywise deviation; exact equality metric, no phase slack.

    Two tables are compared exactly: 0.0 when equal, else 1.0, the deviation
    of their 0/1 matrices, and two phase gates as vectors.  A table against
    any other form reads the other's entries in place: |entry| off the
    table's support, |entry - 1| on it.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.perm is not None and b.perm is not None:
        return 0.0 if np.array_equal(a.perm, b.perm) else 1.0
    if a.phases is not None and b.phases is not None:
        return float(np.max(np.abs(a.phases - b.phases)))
    if a.perm is not None or b.perm is not None:
        table, other = (a, b) if a.perm is not None else (b, a)
        if other.phases is not None:  # read the diagonal; the table's 1s off it meet 0s
            on_diag = table.perm == np.arange(table.dim)
            return float(max(np.abs(other.phases - on_diag).max(), 0.0 if on_diag.all() else 1.0))
        dense = other.entries
        support = (table.perm, np.arange(table.dim))
        dist = np.abs(dense)
        dist[support] = np.abs(dense[support] - 1)
        return float(dist.max())
    return float(np.max(np.abs(a.entries - b.entries)))
