import numpy as np
import pytest

from quditswap.circuit import Circuit, GateOp, circuit_unitary
from quditswap.core import MAX_ENTRIES, DimensionError, max_entry_dist
from quditswap.gates import (
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

from oracles import matmul
from probes import peak_bytes

ALL_BUILDERS = [qft, iqft, cz_d, cz_d_dag, cx_tilde, cx_d, cx_d_dag, x_d, swap_ref]


def test_gate_kind_arity():
    assert GateKind.QFT.arity == 1
    assert GateKind.Xd.arity == 1
    assert GateKind.CXTilde.arity == 2
    assert GateKind.SWAP.arity == 2


def test_qft_d2_is_hadamard():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(qft(2).entries, h, atol=1e-15)


def test_qft_column_zero_uniform():
    for d in (2, 3, 7, 16):
        assert np.allclose(qft(d).entries[:, 0], 1 / np.sqrt(d), atol=1e-15)


def test_qft_d4_entry():
    assert abs(qft(4).entries[1, 1] - 0.5j) <= 1e-15


def test_iqft_entries():
    m = iqft(3)
    for k in range(3):
        for x in range(3):
            want = np.exp(-2j * np.pi * x * k / 3) / np.sqrt(3)
            assert abs(m.entries[k, x] - want) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_iqft_inverts_qft(d):
    prod = matmul(iqft(d), qft(d))
    assert max_entry_dist(prod, identity_gate(d)) <= 1e-12


def test_iqft_d2_self_inverse():
    assert max_entry_dist(iqft(2), qft(2)) <= 1e-15


def test_cz_d2():
    assert np.allclose(cz_d(2).entries, np.diag([1, 1, 1, -1]), atol=1e-15)


def test_cz_phases():
    m = cz_d(3).entries
    assert abs(m[5, 5] - np.exp(4j * np.pi / 3)) <= 1e-15  # basis (1,2)
    for y in range(3):
        assert abs(m[y, y] - 1) <= 1e-15  # x = 0 row block


def test_cz_dag_phases():
    m = cz_d_dag(3).entries
    assert abs(m[8, 8] - np.exp(-2j * np.pi / 3)) <= 1e-15  # basis (2,2)
    # at d=2 the only nontrivial phase is -1, self-conjugate up to sin(pi) noise
    assert max_entry_dist(cz_d_dag(2), cz_d(2)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 7])
def test_cz_dag_inverts_cz(d):
    prod = matmul(cz_d_dag(d), cz_d(d))
    assert max_entry_dist(prod, identity_gate(d, 2)) <= 1e-15


@pytest.mark.parametrize("d", range(2, 33))
def test_cz_diagonal_unimodular(d):
    for g in (cz_d(d), cz_d_dag(d)):
        off = g.entries - np.diag(np.diag(g.entries))
        assert np.max(np.abs(off)) == 0
        assert np.max(np.abs(np.abs(np.diag(g.entries)) - 1)) <= 1e-12


def test_cx_tilde_d2_is_cnot():
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = cnot[3, 2] = cnot[2, 3] = 1
    assert np.array_equal(cx_tilde(2).entries.real, cnot)
    assert np.all(cx_tilde(2).entries.imag == 0)


def test_cx_tilde_mappings():
    assert cx_tilde(3).perm[1 * 3 + 1] == 1 * 3 + 1  # (1,1) fixed point
    assert cx_tilde(5).perm[2 * 5 + 4] == 2 * 5 + 4  # -6 mod 5 = 4


def test_cx_d_mappings():
    cnot = cx_tilde(2)
    assert max_entry_dist(cx_d(2), cnot) == 0
    assert cx_d(3).perm[2 * 3 + 2] == 2 * 3 + 1
    for d in (2, 3, 5):
        for y in range(d):
            assert cx_d(d).perm[y] == y  # x = 0 leaves the target alone


def test_cx_d_dag_mappings():
    for d in (2, 3, 6):
        prod = matmul(cx_d_dag(d), cx_d(d))
        assert max_entry_dist(prod, identity_gate(d, 2)) == 0
    assert cx_d_dag(3).perm[2 * 3 + 1] == 2 * 3 + 2
    assert max_entry_dist(cx_d_dag(2), cx_tilde(2)) == 0


def test_x_d_is_identity_at_d2():
    assert max_entry_dist(x_d(2), identity_gate(2)) == 0


def test_x_d_d3():
    assert tuple(x_d(3).perm) == (0, 2, 1)


@pytest.mark.parametrize("d", range(2, 33))
def test_x_d_involution(d):
    assert max_entry_dist(matmul(x_d(d), x_d(d)), identity_gate(d)) == 0


def test_swap_ref_d2():
    expected = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(swap_ref(2).entries.real, expected)


@pytest.mark.parametrize("d", [2, 3, 5, 9])
def test_swap_ref_properties(d):
    g = swap_ref(d)
    for x in range(d):
        assert g.perm[x * d + x] == x * d + x
    assert max_entry_dist(matmul(g, g), identity_gate(d, 2)) == 0


@pytest.mark.parametrize("d", range(2, 33))
def test_all_gates_unitary(d):
    for builder in ALL_BUILDERS:
        g = builder(d)
        prod = matmul(g.dagger(), g)
        assert max_entry_dist(prod, identity_gate(g.dim)) <= 1e-10


@pytest.mark.parametrize("d", range(2, 33))
def test_cx_tilde_involution_exact(d):
    g = cx_tilde(d)
    prod = matmul(g, g)
    assert tuple(prod.perm) == tuple(range(d * d))
    assert max_entry_dist(prod, identity_gate(d, 2)) == 0


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
def test_perm_tables_are_bijections(d):
    for builder in (cx_tilde, cx_d, cx_d_dag, swap_ref):
        perm = builder(d).perm
        assert sorted(perm) == list(range(d * d))
    assert sorted(x_d(d).perm) == list(range(d))


def test_invalid_dimension_rejected():
    for builder in ALL_BUILDERS:
        with pytest.raises(DimensionError):
            builder(1)


OVERSIZED = [  # (builder, its arguments, the d^k entries it would allocate)
    *((b, (d,), f"{d}^2") for b in (qft, iqft) for d in (4097, 5_000_000)),
    *((b, (4097,), "4097^2") for b in (cz_d, cz_d_dag, cx_tilde, cx_d, cx_d_dag, swap_ref)),
    (x_d, (MAX_ENTRIES + 1,), f"{MAX_ENTRIES + 1}^1"),
    (identity_gate, (2, 25), "2^25"),
    (identity_gate, (4097, 2), "4097^2"),
    (circuit_unitary, (Circuit(2, 13, (GateOp(GateKind.Xd, (1,)),)),), "2^26"),
]


# every builder checks its d^k entries against one budget before allocating:
# a 5e6 x 5e6 QFT would need 182 TiB, an unchecked 4097^2 table 0.2 to 1 GB
@pytest.mark.parametrize("build,args,entries", OVERSIZED,
                         ids=[f"{b.__name__}-{e}" for b, _, e in OVERSIZED])
def test_oversized_qft_rejected_before_allocation(build, args, entries):
    def refuse():
        with pytest.raises(DimensionError) as exc:
            build(*args)
        return exc

    exc, peak = peak_bytes(refuse)
    assert peak < 2**20
    assert str(exc.value) == f"an array of {entries} entries exceeds budget {MAX_ENTRIES}"
