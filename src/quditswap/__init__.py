"""Qudit SWAP gates: construction, simulation and machine verification.

The package builds the controlled gate |x>|y> -> |x>|-x-y mod d> for any
dimension d >= 2, composes three copies of it into a SWAP circuit, decomposes
it into QFT and controlled-phase primitives, and verifies every identity
numerically at machine precision.
"""

from .core import (
    GateMatrix,
    StateVector,
    DimensionError,
    basis_state,
    max_entry_dist,
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
from .circuit import (
    Circuit,
    GateOp,
    asymmetric_swap_circuit,
    circuit_unitary,
    cx_tilde_decomposition,
    cx_tilde_decomposition_alt,
    expand_cx_tilde,
    partial_swap_circuit,
    simulate,
    swap_circuit,
    swap_circuit_alt,
    table_dist,
)
from .verify import VerificationReport, verify_all, verify_identity
from .dsl import ParseError, parse, render

__all__ = [
    "GateMatrix",
    "StateVector",
    "DimensionError",
    "basis_state",
    "max_entry_dist",
    "GateKind",
    "qft",
    "iqft",
    "cz_d",
    "cz_d_dag",
    "cx_tilde",
    "cx_d",
    "cx_d_dag",
    "x_d",
    "swap_ref",
    "identity_gate",
    "Circuit",
    "GateOp",
    "circuit_unitary",
    "simulate",
    "table_dist",
    "swap_circuit",
    "swap_circuit_alt",
    "cx_tilde_decomposition",
    "cx_tilde_decomposition_alt",
    "asymmetric_swap_circuit",
    "partial_swap_circuit",
    "expand_cx_tilde",
    "VerificationReport",
    "verify_identity",
    "verify_all",
    "ParseError",
    "parse",
    "render",
]
