"""The fast gate forms and the wire-axis kernel against the slow oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from quditswap.circuit import (
    Circuit,
    GateOp,
    circuit_unitary,
    cx_tilde_decomposition,
    cx_tilde_decomposition_alt,
    gate_matrix,
    simulate,
)
from quditswap.core import GateMatrix, StateVector, max_entry_dist
from quditswap.gates import GateKind, cx_tilde, cz_d, swap_ref
from quditswap.verify import (
    verify_asymmetric_swap,
    verify_delta_sum,
    verify_self_inverse,
    verify_swap,
)

KINDS = list(GateKind)


@st.composite
def circuits(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 4))
    kinds = [k for k in KINDS if k.arity <= n]
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        wires = draw(st.permutations(range(1, n + 1)))[: kind.arity]
        ops.append(GateOp(kind, tuple(wires), d))
    return Circuit(d, n, tuple(ops))


def _random_amps(seed, size):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


@settings(deadline=None, max_examples=60)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_simulate_matches_oracle(c, seed):
    amps = _random_amps(seed, c.d**c.n)
    got = simulate(c, StateVector(c.d, c.n, amps)).amps
    assert np.max(np.abs(got - oracles.simulate(c, amps))) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(circuits())
def test_circuit_unitary_matches_oracle_product(c):
    u = circuit_unitary(c)
    want = oracles.unitary(c)
    assert np.max(np.abs(u.entries - want)) <= 1e-12
    if all(gate_matrix(op.kind, c.d).perm is not None for op in c.ops):
        assert u.perm is not None
        assert np.array_equal(u.entries, want)


def _ops(d, *specs):
    return tuple(GateOp(kind, wires, d) for kind, wires in specs)


# circuits in which some wire's digit is never changed: the unitary is built
# block by block over the other wires
KEPT_WIRE_CIRCUITS = [
    *(build(d) for build in (cx_tilde_decomposition, cx_tilde_decomposition_alt)
      for d in range(2, 9)),
    *(Circuit(d, 3, _ops(d, (GateKind.QFT, (2,)))) for d in (2, 3)),
    Circuit(3, 3, _ops(3, (GateKind.QFT, (2,)), (GateKind.CXd, (1, 2)),
                       (GateKind.CZd, (3, 2)), (GateKind.IQFT, (2,)))),
]


@pytest.mark.parametrize("c", KEPT_WIRE_CIRCUITS, ids=lambda c: f"d{c.d}n{c.n}-{len(c.ops)}ops")
def test_circuit_unitary_with_kept_wires_matches_oracle(c):
    u = circuit_unitary(c)
    assert u.matrix is not None
    assert np.max(np.abs(u.entries - oracles.unitary(c))) <= 1e-12


def test_phase_circuit_unitary_is_phases():
    c = Circuit(3, 3, _ops(3, (GateKind.CZd, (1, 3)), (GateKind.Identity, (2,)),
                           (GateKind.CZdDag, (2, 1))))
    u = circuit_unitary(c)
    assert u.phases is not None
    assert np.max(np.abs(u.entries - oracles.unitary(c))) <= 1e-12


@st.composite
def dense_and_table(draw):
    """A table and a dense matrix that equals it or has one worst entry on or off it."""
    dim = draw(st.integers(2, 12))
    perm = draw(st.permutations(range(dim)))
    dense = oracles.permutation_matrix(perm)
    case = draw(st.sampled_from(["equal", "off", "on"]))
    if case != "equal":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dense += 1e-3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        col = draw(st.integers(0, dim - 1))
        others = [r for r in range(dim) if r != perm[col]]
        row = perm[col] if case == "on" else draw(st.sampled_from(others))
        dense[row, col] += 0.5 - 0.5j
    return perm, dense, case


@given(dense_and_table())
def test_dense_against_table_matches_oracle(drawn):
    perm, dense, case = drawn
    diff = np.abs(dense - oracles.permutation_matrix(perm))
    want = float(np.max(diff))
    table, other = GateMatrix(perm=perm), GateMatrix(dense)
    assert max_entry_dist(other, table) == want
    assert max_entry_dist(table, other) == want
    if case == "equal":
        assert want == 0.0
    else:
        row, col = np.unravel_index(np.argmax(diff), diff.shape)
        assert (row == perm[col]) == (case == "on")


def _peak_bytes(fn):
    """(result, tracemalloc peak) of one call."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unitary_and_compare_allocate_little_beyond_the_output():
    c, target = cx_tilde_decomposition(16), cx_tilde(16)
    u, build_peak = _peak_bytes(lambda: circuit_unitary(c))
    size = u.matrix.nbytes
    assert build_peak <= 1.5 * size
    for args in ((u, target), (target, u)):
        _, compare_peak = _peak_bytes(lambda: max_entry_dist(*args))
        assert compare_peak <= 0.75 * size


@given(st.integers(2, 5))
def test_gate_forms_match_oracle(d):
    for kind in KINDS:
        g = gate_matrix(kind, d)
        assert (g.matrix is not None) == (kind in (GateKind.QFT, GateKind.IQFT))
        assert (g.phases is not None) == (kind in (GateKind.CZd, GateKind.CZdDag))
        table = oracles.perm_table(kind, d)
        assert (table is not None) == (g.perm is not None)
        if table is not None:
            assert np.array_equal(g.entries, oracles.permutation_matrix(table))
        else:
            assert np.max(np.abs(g.entries - oracles.gate_entries(kind, d))) <= 1e-12
        assert np.array_equal(g.dagger().entries, g.entries.conj().T)


@given(st.integers(2, 30).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)))))
def test_table_algebra_matches_dense(perms):
    a, b = (GateMatrix(perm=p) for p in perms)
    dense_a, dense_b = (oracles.permutation_matrix(p) for p in perms)
    assert np.array_equal(a.entries, dense_a)
    assert np.array_equal(a.dagger().entries, dense_a.conj().T)
    assert max_entry_dist(a, b) == float(np.max(np.abs(dense_a - dense_b)))


@pytest.mark.parametrize("d", range(2, 17))
def test_delta_sum_matches_loop(d):
    assert abs(verify_delta_sum(d).max_dev - oracles.delta_sum_max_dev(d)) <= 1e-15


def test_exact_identities_zero_for_every_d():
    for d in range(2, 65):
        for check in (verify_swap, verify_self_inverse, verify_asymmetric_swap):
            r = check(d)
            assert r.max_dev == 0.0 and r.tolerance == 0.0, (check.__name__, d)


def test_large_gates_hold_no_dense_matrix():
    for g in (cx_tilde(64), swap_ref(64), cz_d(64)):
        held = [a for a in (g.matrix, g.perm, g.phases) if a is not None]
        assert len(held) == 1 and held[0].size <= 4096
