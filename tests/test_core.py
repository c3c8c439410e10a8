import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quditswap.circuit import Circuit, GateOp, simulate
from quditswap.core import (
    _SLAB,
    DimensionError,
    GateMatrix,
    StateVector,
    basis_state,
    max_entry_dist,
)
from quditswap.gates import GateKind, identity_gate, qft, swap_ref, x_d

from oracles import apply, flat_to_digits, kron
from probes import peak_bytes


def test_basis_state_examples():
    assert np.array_equal(basis_state((0, 0), 2).amps, [1, 0, 0, 0])
    s = basis_state((1, 2), 3)
    assert s.amps[5] == 1 and np.count_nonzero(s.amps) == 1
    assert basis_state((4,), 5).amps[4] == 1


def test_basis_state_rejects_out_of_range_digit():
    for digits in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="out of range for d=3"):
            basis_state(digits, 3)


def test_basis_state_refuses_a_register_over_the_state_budget_before_allocating():
    def refuse():
        with pytest.raises(DimensionError, match="exceeds budget"):
            basis_state((0, 0), 4097)

    assert peak_bytes(refuse)[1] < 2**20


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (5, 2), (10, 4), (21, 2)])
def test_label_round_trip(d, n):
    # the label of flat index j, from the oracle's digit loop, is basis state j
    for flat in range(d**n):
        assert np.flatnonzero(basis_state(flat_to_digits(flat, d, n), d).amps) == flat


def test_kron_identity():
    i2 = identity_gate(2)
    assert max_entry_dist(kron(i2, i2), identity_gate(2, 2)) == 0


def test_kron_wire_ordering():
    # pauli-X on the more significant digit swaps the two 2x2 blocks
    x = GateMatrix(perm=(1, 0))
    m = kron(x, identity_gate(2))
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
    ident = GateKind.Identity
    c = Circuit(2, 2, (GateOp(ident, (1,)), GateOp(ident, (2,))))
    assert np.array_equal(simulate(c, s).amps, s.amps)


def test_apply_perm_matches_dense():
    # the kernel moves amplitudes by the table; the oracle multiplies by the 0/1 matrix
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        c = Circuit(d, 2, (GateOp(GateKind.SWAP, (1, 2)),))
        amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        amps /= np.linalg.norm(amps)
        s = StateVector(d, 2, amps)
        diff = np.abs(simulate(c, s).amps - apply(swap_ref(d), s).amps)
        assert float(diff.max()) <= 1e-12


def test_apply_swap_on_basis():
    out = apply(swap_ref(3), basis_state((1, 2), 3))
    assert np.array_equal(out.amps, basis_state((2, 1), 3).amps)


def test_max_entry_dist_examples():
    m = qft(3)
    assert max_entry_dist(m, m) == 0
    i2 = identity_gate(2)
    neg = GateMatrix(-i2.entries)
    assert max_entry_dist(i2, neg) == 2
    with pytest.raises(DimensionError):
        max_entry_dist(i2, identity_gate(3))


def test_perm_table_rejected_when_not_bijection():
    # a repeat, labels out of range, and tables that are not vectors, the empty one too
    for perm in ((0, 0), (-1, 0), (1, 2), [[0]], np.zeros((0, 3))):
        with pytest.raises(ValueError, match="perm table is not a bijection"):
            GateMatrix(perm=perm)


def test_gate_holds_exactly_one_form():
    with pytest.raises(ValueError, match="exactly one"):
        GateMatrix(np.eye(2), (0, 1))
    with pytest.raises(ValueError, match="exactly one"):
        GateMatrix()


@pytest.mark.parametrize("form,error,message", [
    ({"phases": np.ones((2, 2))}, DimensionError, r"phases must be a vector, got \(2, 2\)"),
    ({"matrix": np.ones((2, 3))}, DimensionError, r"gate matrix must be square, got \(2, 3\)"),
    ({"matrix": np.ones(4)}, DimensionError, r"gate matrix must be square, got \(4,\)"),
    ({"matrix": [[1, 0], [np.nan, 1]]}, ValueError, "non-finite matrix entry"),
    ({"phases": [1, np.inf]}, ValueError, "non-finite matrix entry"),
])
def test_gate_form_is_shaped_and_finite(form, error, message):
    with pytest.raises(error, match=message) as exc:
        GateMatrix(**form)
    assert type(exc.value) is error


def test_x_d_dagger_inverts_perm():
    g = x_d(5)
    gd = g.dagger()
    assert tuple(gd.perm[g.perm[j]] for j in range(5)) == tuple(range(5))


def _edges(size):
    """The first and last index of a register of ``size`` amplitudes and of each slab."""
    return sorted({0, size - 1, *(e for s in range(_SLAB, size, _SLAB) for e in (s - 1, s))})


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 3 * _SLAB + 5).flatmap(lambda size: st.tuples(st.just(size), st.lists(
    st.sampled_from(_edges(size)) | st.integers(0, size - 1), min_size=1, max_size=3))))
@example((_SLAB + 1, [_SLAB]))
def test_a_non_finite_amplitude_is_named_by_its_first_index(drawn):
    # checked a slab at a time: the bad entries drawn anywhere, and at the slabs' edges
    size, at = drawn
    amps = np.ones(size, dtype=np.complex128)
    for i in at:  # NaN, inf or both, in either part
        amps[i] = complex(np.nan if i % 2 else 1.0, np.inf if i % 3 else 0.0) if i % 6 else -np.inf
    with pytest.raises(ValueError) as exc:
        StateVector(size, 1, amps)
    assert str(exc.value) == f"non-finite amplitude at index {min(at)}"


def test_finiteness_check_holds_one_slab_of_bools():
    # 2^20 amplitudes: one bool each would take 1 MiB; a slab's check takes 65 KB
    amps = np.ones(2**20, dtype=np.complex128)
    _, peak = peak_bytes(lambda: StateVector(2, 20, amps))
    assert peak <= 4 * _SLAB
