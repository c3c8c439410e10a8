import numpy as np
import pytest
from hypothesis import given, strategies as st

from quditswap.core import (
    DimensionError,
    GateMatrix,
    StateVector,
    apply,
    basis_state,
    digits_to_flat,
    flat_to_digits,
    identity_matrix,
    max_entry_dist,
    mod_d,
)
from quditswap.gates import qft, swap_ref, x_d

from oracles import kron


def test_mod_d_examples():
    assert mod_d(-2, 3) == 1
    assert mod_d(5, 5) == 0
    assert mod_d(0, 7) == 0


def test_mod_d_rejects_bad_dimension():
    with pytest.raises(DimensionError):
        mod_d(3, 1)


@given(st.integers(2, 17), st.data())
def test_mod_d_additive(d, data):
    a = data.draw(st.integers(-3 * d, 3 * d))
    b = data.draw(st.integers(-3 * d, 3 * d))
    assert mod_d(a + b, d) == mod_d(mod_d(a, d) + mod_d(b, d), d)


def test_basis_state_examples():
    assert np.array_equal(basis_state((0, 0), 2).amps, [1, 0, 0, 0])
    s = basis_state((1, 2), 3)
    assert s.amps[5] == 1 and np.count_nonzero(s.amps) == 1
    assert basis_state((4,), 5).amps[4] == 1


def test_basis_state_rejects_out_of_range_digit():
    with pytest.raises(ValueError):
        basis_state((0, 3), 3)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (5, 2), (10, 4), (21, 2)])
def test_label_round_trip(d, n):
    for flat in range(d**n):
        assert digits_to_flat(flat_to_digits(flat, d, n), d) == flat


def test_kron_identity():
    i2 = identity_matrix(2)
    assert max_entry_dist(kron(i2, i2), identity_matrix(4)) == 0


def test_kron_wire_ordering():
    # pauli-X on the more significant digit swaps the two 2x2 blocks
    x = GateMatrix(np.array([[0, 1], [1, 0]], dtype=complex), (1, 0))
    m = kron(x, identity_matrix(2))
    assert tuple(m.perm) == (2, 3, 0, 1)
    expected = np.zeros((4, 4))
    expected[2, 0] = expected[3, 1] = expected[0, 2] = expected[1, 3] = 1
    assert np.array_equal(m.entries.real, expected)


def test_kron_qft_uniform():
    # oracle: QFT|0> has every amplitude 1/sqrt(d); two factors give 1/d
    m = kron(qft(2), qft(2))
    out = apply(m, basis_state((0, 0), 2))
    assert np.allclose(out.amps, 0.5, atol=1e-14)


def test_apply_identity():
    s = basis_state((1, 0), 2)
    assert np.array_equal(apply(identity_matrix(4), s).amps, s.amps)


def test_apply_perm_matches_dense():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        g = swap_ref(d)
        dense = GateMatrix(g.entries.copy())
        amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        amps /= np.linalg.norm(amps)
        s = StateVector(d, 2, amps)
        diff = np.abs(apply(g, s).amps - apply(dense, s).amps)
        assert float(diff.max()) <= 1e-12


def test_apply_swap_on_basis():
    out = apply(swap_ref(3), basis_state((1, 2), 3))
    assert np.array_equal(out.amps, basis_state((2, 1), 3).amps)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply(identity_matrix(4), basis_state((0,), 3))


def test_max_entry_dist_examples():
    m = qft(3)
    assert max_entry_dist(m, m) == 0
    i2 = identity_matrix(2)
    neg = GateMatrix(-i2.entries)
    assert max_entry_dist(i2, neg) == 2
    with pytest.raises(DimensionError):
        max_entry_dist(i2, identity_matrix(3))


def test_perm_table_rejected_when_not_bijection():
    with pytest.raises(ValueError):
        GateMatrix(np.eye(2), (0, 0))


def test_x_d_dagger_inverts_perm():
    g = x_d(5)
    gd = g.dagger()
    assert tuple(gd.perm[g.perm[j]] for j in range(5)) == tuple(range(5))
