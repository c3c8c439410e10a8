"""The fast gate forms and the wire-axis kernel against the slow oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from quditswap.circuit import Circuit, GateOp, circuit_unitary, gate_matrix, simulate
from quditswap.core import GateMatrix, StateVector, apply, matmul, max_entry_dist
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
        assert np.max(np.abs(matmul(g, g).entries - g.entries @ g.entries)) <= 1e-12


@given(st.integers(2, 30).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)))))
def test_table_algebra_matches_dense(perms):
    a, b = (GateMatrix(perm=p) for p in perms)
    dense_a, dense_b = (oracles.permutation_matrix(p) for p in perms)
    assert np.array_equal(a.entries, dense_a)
    assert np.array_equal(matmul(a, b).entries, dense_a @ dense_b)
    assert np.array_equal(a.dagger().entries, dense_a.conj().T)
    assert max_entry_dist(a, b) == float(np.max(np.abs(dense_a - dense_b)))
    amps = _random_amps(len(perms[0]), len(perms[0]))
    state = StateVector(len(amps), 1, amps)
    assert np.array_equal(apply(a, state).amps, dense_a @ amps)


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
