"""Constructors for the qudit gate set.

Every builder returns a :class:`~quditswap.core.GateMatrix` over one or two
qudits of dimension d.  For two-qudit gates the first label digit is the
control and the second the target; placing a gate on other wires (or with the
control below the target) is the job of circuit embedding, never of the
constructor.  Each builder checks its d^k entries against the one budget
(``core._check_budget``) before it allocates them.  The QFT and the phase
gates index one vector of roots of unity; ``gate_matrix`` builds any kind.
"""

from __future__ import annotations

import contextvars
import enum

import numpy as np

from .core import GateMatrix, _check_budget


class GateKind(enum.Enum):
    """Gate vocabulary; the value is the DSL mnemonic."""

    QFT = "QFT"
    IQFT = "IQFT"
    CZd = "CZ"
    CZdDag = "CZD"
    CXTilde = "CXT"
    CXd = "CX"
    CXdDag = "CXD"
    Xd = "X"
    SWAP = "SWAP"
    Identity = "ID"

    @property
    def arity(self) -> int:
        return 1 if self in (GateKind.QFT, GateKind.IQFT, GateKind.Xd, GateKind.Identity) else 2


GATE_SET: contextvars.ContextVar[dict | None] = contextvars.ContextVar("gate_set", default=None)


def shared(build, *args):
    """``build(*args)``, made once per key (build, *args) while a gate set (a dict its opener puts
    in ``GATE_SET``, then resets) is open: a patched builder is another key.  Else made anew."""
    built, key = GATE_SET.get(), (build, *args)
    if built is not None and key not in built:
        built[key] = build(*args)
    return build(*args) if built is None else built[key]


def _digits(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Digit arrays (x, y) of every two-qudit flat index x * d + y, in order."""
    _check_budget(d, 2)
    return np.divmod(np.arange(d * d), d)


def _powers(d: int, sign: int) -> np.ndarray:
    """e^{sign i 2pi a b / d} at each two-digit label (a, b), read from one vector of d roots."""
    a, b = shared(_digits, d)
    phase = sign * 2.0 * np.pi * np.arange(d) / d  # conjugating sign +1 would flip signed zeros
    return (np.cos(phase) + 1j * np.sin(phase))[(a * b) % d]


def qft(d: int) -> GateMatrix:
    """Quantum Fourier transform: entry (k, x) = e^{i 2pi x k / d} / sqrt(d)."""
    return GateMatrix((shared(_powers, d, +1) / np.sqrt(d)).reshape(d, d))


def iqft(d: int) -> GateMatrix:
    """Inverse QFT, the conjugate transpose of :func:`qft`."""
    return shared(qft, d).dagger()


def cz_d(d: int) -> GateMatrix:
    """Controlled phase: multiplies basis state (x, y) by e^{i 2pi x y / d}."""
    return GateMatrix(phases=shared(_powers, d, +1))


def cz_d_dag(d: int) -> GateMatrix:
    """Inverse controlled phase, e^{-i 2pi x y / d}."""
    return GateMatrix(phases=_powers(d, -1))


def cx_tilde(d: int) -> GateMatrix:
    """The negated-sum gate (x, y) -> (x, -x-y mod d); an involution.

    At d=2 this is the CNOT.
    """
    x, y = shared(_digits, d)
    return GateMatrix(perm=x * d + (-x - y) % d)


def cx_d(d: int) -> GateMatrix:
    """Controlled modular adder (x, y) -> (x, x+y mod d)."""
    x, y = shared(_digits, d)
    return GateMatrix(perm=x * d + (x + y) % d)


def cx_d_dag(d: int) -> GateMatrix:
    """Controlled modular subtractor (x, y) -> (x, y-x mod d)."""
    x, y = shared(_digits, d)
    return GateMatrix(perm=x * d + (y - x) % d)


def x_d(d: int) -> GateMatrix:
    """Modular complement x -> -x mod d.

    Note: at d=2 this is the identity (-x = x mod 2), not the qubit NOT.
    """
    _check_budget(d, 1)
    return GateMatrix(perm=-np.arange(d) % d)


def swap_ref(d: int) -> GateMatrix:
    """Ground-truth SWAP permutation (x, y) -> (y, x)."""
    x, y = shared(_digits, d)
    return GateMatrix(perm=y * d + x)


def identity_gate(d: int, wires: int = 1) -> GateMatrix:
    """Identity on the given number of qudit wires."""
    _check_budget(d, wires)
    return GateMatrix(perm=np.arange(d**wires))


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
    """Canonical matrix of a gate kind at dimension d (control digit first), via ``shared``."""
    return shared(_BUILDERS[kind], d)
