"""Executable identity suite: the paper's claims as one table of identities.

``IDENTITIES`` maps each report name to two functions of d, the deviation
at d and the tolerance it must meet; ``verify_identity`` runs one row at one
d, and ``verify_all`` every row over a range of d.  The five permutation rows
move basis labels through exact integer tables and must report exactly 0: by
linearity, a circuit that permutes labels needs no sampled state.  The QFT /
controlled-phase decompositions are compared with their table on the
circuit's blocks, at a 1e-10 entrywise tolerance.  The geometric-sum delta
adds its terms once per m, its tolerance scaled with d for cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError
from .circuit import (
    _BOX,
    Circuit,
    GateOp,
    _follow,
    asymmetric_swap_circuit,
    cx_tilde_decomposition,
    cx_tilde_decomposition_alt,
    partial_swap_circuit,
    swap_circuit,
    swap_circuit_alt,
    table_dist,
)
from .gates import GATE_SET, GateKind, cx_tilde, identity_gate, shared, swap_ref

DENSE_TOL = 1e-10
PERM_TOL = 0.0
_CX_TILDE_SQUARED = (GateOp(GateKind.CXTilde, (1, 2)),) * 2


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check at one dimension."""

    identity_name: str
    d: int
    max_dev: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tolerance


def _table_dev(d: int, target, *circuits) -> float:
    """The largest ``table_dist``, one per gate set, of the circuits at d from ``target(d)``."""
    table = shared(target, d)
    return max(shared(table_dist, circuit(d), table) for circuit in circuits)


def _partial_swap_dev(d: int) -> float:
    """0.0 if every |phi>|0> comes out as |0>|phi>, that is, each label (x, 0) lands on (0, x)."""
    x, zero = np.arange(d), np.zeros(d, dtype=np.intp)
    landed = _follow(partial_swap_circuit(d), np.array([x, zero]))
    return 0.0 if np.array_equal(landed, [zero, x]) else 1.0


def _delta_sum_dev(d: int) -> float:
    """Worst |sum_k e^{i 2pi (x+y+l) k / d} - d delta| over every x, y, l.

    The sum depends on x, y, l only through the unreduced m = x+y+l in
    0..3d-3, so it is evaluated once per m, adding the k terms in order.
    The m go ``_BOX // 4`` terms at a time, so that each array of a chunk stays
    under glibc's 128 KiB mmap threshold: in one chunk, d = 64's are mapped and
    faulted in anew on every call, about 1,300 faults in 10 ``verify_all`` passes.
    """
    k, worst, rows = np.arange(d), 0.0, max(1, _BOX // 4 // d)
    for lo in range(0, 3 * d - 2, rows):
        m = np.arange(lo, min(lo + rows, 3 * d - 2))[:, None]
        terms = np.exp(1j * (2.0 * np.pi * m * k / d))
        total = np.cumsum(terms, axis=1)[:, -1]
        expected = np.where(m[:, 0] % d == 0, d, 0)
        worst = max(worst, float(np.max(np.abs(total - expected))))
    return worst


def _exact(d: int) -> float:
    return PERM_TOL


# Report name -> (deviation at d, tolerance at d), in report order.  The rows
# look their builders up at call time, so a wrapper on the module sees them.
IDENTITIES = {
    # both three-gate SWAP circuits equal the SWAP permutation
    "swap": (lambda d: _table_dev(d, swap_ref, swap_circuit, swap_circuit_alt), _exact),
    # both QFT/phase decompositions reproduce the negated-sum gate
    "decomposition": (
        lambda d: _table_dev(d, cx_tilde, cx_tilde_decomposition, cx_tilde_decomposition_alt),
        lambda d: DENSE_TOL,
    ),
    # the negated-sum gate squared is the identity
    "self_inverse": (lambda d: _table_dev(
        d, lambda d: identity_gate(d, 2), lambda d: Circuit(d, 2, _CX_TILDE_SQUARED)), _exact),
    # the geometric sum over d-th roots of unity collapses to d * delta
    "delta_sum": (_delta_sum_dev, lambda d: 1e-9 * d),
    # the adder/subtractor/complement reconstruction is a SWAP
    "asymmetric_swap": (lambda d: _table_dev(d, swap_ref, asymmetric_swap_circuit), _exact),
    "partial_swap": (_partial_swap_dev, _exact),
    # SWAP transposes the amplitudes of every two-qudit state exactly when its
    # table is the SWAP table (linearity); verify_all reads the swap row's distance
    "random_states": (lambda d: _table_dev(d, swap_ref, swap_circuit), _exact),
}


def verify_identity(name: str, d: int) -> VerificationReport:
    """Check the identity ``name``, a key of ``IDENTITIES``, at dimension d."""
    if name not in IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(IDENTITIES)}")
    check_d_range(d, d)  # before any table is built
    deviation, tolerance = IDENTITIES[name]
    return VerificationReport(name, d, deviation(d), tolerance(d))


def check_d_range(d_min: int, d_max: int) -> None:
    """Raise DimensionError unless 2 <= d_min <= d_max <= 64, the range the suite covers."""
    for d in (d_min, d_max):
        if not 2 <= d <= 64:
            raise DimensionError(f"d must be in 2..64, got {d}")
    if d_min > d_max:
        raise DimensionError(f"empty d range {d_min}..{d_max}")


def verify_all(d_min: int, d_max: int, seed: int = 42) -> list[VerificationReport]:
    """Run every row of ``IDENTITIES`` for each d in [d_min, d_max], in order.

    The rows at one d share one gate set, so each gate is built once per d.
    ``seed`` is accepted for callers that pass one, but no check samples.
    """
    check_d_range(d_min, d_max)
    reports = []
    for d in range(d_min, d_max + 1):
        token = GATE_SET.set({})  # the rows' gate set at d, dropped when the d is done
        try:
            reports += [verify_identity(name, d) for name in IDENTITIES]
        finally:
            GATE_SET.reset(token)
    return reports
