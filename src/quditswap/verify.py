"""Executable identity suite: every algebraic claim checked numerically.

Permutation identities (SWAP, self-inverse, the asymmetric and partial
swaps) are checked on basis labels through exact integer tables, and must
report exactly 0: by linearity, a circuit that permutes labels needs no sampled
state.  The QFT / controlled-phase decompositions are compared with their
table on the circuit's blocks, at a 1e-10 entrywise tolerance; the
geometric-sum check scales its tolerance with d to allow for cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_dim, identity_matrix
from .circuit import (
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
from .gates import GateKind, cx_tilde, swap_ref

DENSE_TOL = 1e-10
PERM_TOL = 0.0


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


def verify_swap(d: int) -> VerificationReport:
    """Both three-gate SWAP circuits equal the SWAP permutation exactly."""
    _check_dim(d)
    target = swap_ref(d)
    dev = max(table_dist(swap_circuit(d), target), table_dist(swap_circuit_alt(d), target))
    return VerificationReport("swap", d, dev, PERM_TOL)


def verify_decomposition(d: int) -> VerificationReport:
    """Both QFT/phase decompositions reproduce the negated-sum gate."""
    _check_dim(d)
    target = cx_tilde(d)
    dev = max(
        table_dist(cx_tilde_decomposition(d), target),
        table_dist(cx_tilde_decomposition_alt(d), target),
    )
    return VerificationReport("decomposition", d, dev, DENSE_TOL)


def verify_self_inverse(d: int) -> VerificationReport:
    """The negated-sum gate squared is the identity, exactly."""
    _check_dim(d)
    squared = Circuit(d, 2, (GateOp(GateKind.CXTilde, (1, 2), d),) * 2)
    dev = table_dist(squared, identity_matrix(d * d))
    return VerificationReport("self_inverse", d, dev, PERM_TOL)


def verify_delta_sum(d: int) -> VerificationReport:
    """Geometric sum over d-th roots of unity collapses to d * delta.

    The sum over k of e^{i 2pi (x+y+l) k / d} depends on x, y, l only
    through the unreduced m = x+y+l in 0..3d-3, so it is evaluated once per
    m, adding the k terms in order.
    """
    _check_dim(d)
    m = np.arange(3 * d - 2)[:, None]
    k = np.arange(d)
    terms = np.exp(1j * (2.0 * np.pi * m * k / d))
    total = np.cumsum(terms, axis=1)[:, -1]
    expected = np.where(m[:, 0] % d == 0, d, 0)
    worst = float(np.max(np.abs(total - expected)))
    return VerificationReport("delta_sum", d, worst, 1e-9 * d)


def verify_asymmetric_swap(d: int) -> VerificationReport:
    """The adder/subtractor/complement reconstruction is a SWAP, exactly."""
    _check_dim(d)
    dev = table_dist(asymmetric_swap_circuit(d), swap_ref(d))
    return VerificationReport("asymmetric_swap", d, dev, PERM_TOL)


def verify_partial_swap(d: int) -> VerificationReport:
    """Every |phi>|0> comes out as |0>|phi> under the partial swap, exactly.

    By linearity it does exactly when each label (x, 0) lands on (0, x).
    """
    _check_dim(d)
    x, zero = np.arange(d), np.zeros(d, dtype=np.intp)
    landed = _follow(partial_swap_circuit(d), np.array([x, zero]))
    dev = 0.0 if np.array_equal(landed, [zero, x]) else 1.0
    return VerificationReport("partial_swap", d, dev, PERM_TOL)


def random_state_check(d: int) -> VerificationReport:
    """SWAP transposes the amplitudes of every two-qudit state, exactly.

    By linearity it does exactly when its table is the SWAP table.
    """
    _check_dim(d)
    dev = table_dist(swap_circuit(d), swap_ref(d))
    return VerificationReport("random_states", d, dev, PERM_TOL)


def check_d_range(d_min: int, d_max: int) -> None:
    """Raise ValueError unless 2 <= d_min <= d_max <= 64, the range the suite covers."""
    for d in (d_min, d_max):
        if not 2 <= d <= 64:
            raise ValueError(f"d must be in 2..64, got {d}")
    if d_min > d_max:
        raise ValueError(f"empty d range {d_min}..{d_max}")


def verify_all(d_min: int, d_max: int, seed: int = 42) -> list[VerificationReport]:
    """Run every identity check for each d in [d_min, d_max], in order.

    ``seed`` is accepted for callers that pass one, but no check samples.
    """
    check_d_range(d_min, d_max)
    reports: list[VerificationReport] = []
    for d in range(d_min, d_max + 1):
        reports.append(verify_swap(d))
        reports.append(verify_decomposition(d))
        reports.append(verify_self_inverse(d))
        reports.append(verify_delta_sum(d))
        reports.append(verify_asymmetric_swap(d))
        reports.append(verify_partial_swap(d))
        reports.append(random_state_check(d))
    return reports
