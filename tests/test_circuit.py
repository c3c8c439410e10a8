from collections import Counter

import numpy as np
import pytest

from quditswap.circuit import (
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
from quditswap.core import (
    DimensionError,
    GateMatrix,
    StateVector,
    basis_state,
    max_entry_dist,
)
from quditswap.gates import GateKind, cx_tilde, identity_gate, swap_ref
from quditswap.verify import verify_all, verify_identity

import oracles
from oracles import apply, kron, matmul

# independent oracle: simulate the circuits on basis labels with plain
# modular arithmetic, no gate matrices involved
_ORACLE_STEPS = {
    GateKind.CXTilde: lambda c, t, d: (-c - t) % d,
    GateKind.CXd: lambda c, t, d: (c + t) % d,
    GateKind.CXdDag: lambda c, t, d: (t - c) % d,
}


def oracle_trace(circ, label):
    digits = list(label)
    trace = [tuple(digits)]
    for op in circ.ops:
        if op.kind is GateKind.Xd:
            w = op.wires[0] - 1
            digits[w] = (-digits[w]) % circ.d
        else:
            c, t = (w - 1 for w in op.wires)
            digits[t] = _ORACLE_STEPS[op.kind](digits[c], digits[t], circ.d)
        trace.append(tuple(digits))
    return trace


def output_label(circ, label):
    out = simulate(circ, basis_state(label, circ.d))
    idx = int(np.argmax(np.abs(out.amps)))
    assert abs(out.amps[idx] - 1) <= 1e-12
    digits = []
    for _ in range(circ.n):
        digits.append(idx % circ.d)
        idx //= circ.d
    return tuple(reversed(digits))


def random_states(d, n, count, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        amps = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        yield StateVector(d, n, amps / np.linalg.norm(amps))


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp(GateKind.CXTilde, (1,))
    with pytest.raises(ValueError):
        GateOp(GateKind.CXTilde, (2, 2))
    with pytest.raises(ValueError):
        GateOp(GateKind.QFT, (0,))


def test_circuit_validation():
    op = GateOp(GateKind.QFT, (3,))
    with pytest.raises(ValueError, match="wire out of range"):
        Circuit(3, 2, (op,))
    with pytest.raises(ValueError, match="wire count must be >= 1, got 0"):
        Circuit(3, 0)


def embed(op, d, n):
    """A gate lifted onto its wires of an n-wire register of dimension d: a one-op circuit."""
    return circuit_unitary(Circuit(d, n, (op,)))


def test_embed_canonical_placement():
    m = embed(GateOp(GateKind.CXTilde, (1, 2)), 2, 2)
    assert max_entry_dist(m, cx_tilde(2)) == 0


def test_embed_reversed_control():
    m = embed(GateOp(GateKind.CXTilde, (2, 1)), 3, 2)
    out = apply(m, basis_state((1, 2), 3))
    assert np.array_equal(out.amps, basis_state((0, 2), 3).amps)


def test_embed_single_wire():
    m = embed(GateOp(GateKind.Xd, (1,)), 3, 2)
    out = apply(m, basis_state((1, 2), 3))
    assert np.array_equal(out.amps, basis_state((2, 2), 3).amps)


def test_embed_dense_gate_on_either_wire():
    # dense path must agree with the kron construction wire by wire
    from quditswap.gates import qft

    d = 3
    top = embed(GateOp(GateKind.QFT, (1,)), d, 2)
    bottom = embed(GateOp(GateKind.QFT, (2,)), d, 2)
    assert max_entry_dist(top, kron(qft(d), identity_gate(d))) <= 1e-15
    assert max_entry_dist(bottom, kron(identity_gate(d), qft(d))) <= 1e-15


def test_embed_budget():
    with pytest.raises(DimensionError):
        embed(GateOp(GateKind.QFT, (1,)), 2, 13)


def test_simulate_register_wider_than_unitary_budget():
    d, n = 2, 13
    c = Circuit(d, n, (GateOp(GateKind.Xd, (1,)), GateOp(GateKind.CXd, (1, 2))))
    with pytest.raises(DimensionError):
        circuit_unitary(c)
    out = simulate(c, basis_state((1,) + (0,) * (n - 1), d))
    assert np.array_equal(out.amps, basis_state((1, 1) + (0,) * (n - 2), d).amps)


def test_circuit_unitary_empty_and_single():
    assert max_entry_dist(circuit_unitary(Circuit(3, 2)), identity_gate(3, 2)) == 0
    op = GateOp(GateKind.CXd, (1, 2))
    c = Circuit(3, 2, (op,))
    assert max_entry_dist(circuit_unitary(c), GateMatrix(oracles.embed(op, 3, 2))) == 0


def test_circuit_unitary_order():
    # QFT then CZ: first op must be the rightmost factor
    c = Circuit(3, 2, (
        GateOp(GateKind.QFT, (2,)),
        GateOp(GateKind.CZd, (1, 2)),
    ))
    cz = embed(GateOp(GateKind.CZd, (1, 2)), 3, 2)
    qft_embedded = embed(GateOp(GateKind.QFT, (2,)), 3, 2)
    # the phases scale the rows of the QFT, as the kernel does, so the
    # product is formed without a BLAS rounding and must agree exactly
    want = GateMatrix(cz.phases[:, None] * qft_embedded.entries)
    assert max_entry_dist(circuit_unitary(c), want) == 0


@pytest.mark.parametrize("d", range(2, 17))
def test_swap_circuit_exact(d):
    assert max_entry_dist(circuit_unitary(swap_circuit(d)), swap_ref(d)) == 0
    assert max_entry_dist(circuit_unitary(swap_circuit_alt(d)), swap_ref(d)) == 0


def test_swap_circuit_trace_matches_oracle():
    circ = swap_circuit(3)
    assert oracle_trace(circ, (1, 2)) == [(1, 2), (0, 2), (0, 1), (2, 1)]
    assert output_label(circ, (1, 2)) == (2, 1)
    # every basis label agrees with the oracle for several d
    for d in (2, 3, 5):
        circ = swap_circuit(d)
        for x in range(d):
            for y in range(d):
                assert output_label(circ, (x, y)) == oracle_trace(circ, (x, y))[-1]
                assert oracle_trace(circ, (x, y))[-1] == (y, x)


def test_swap_on_diagonal_fixed_points():
    for d in (2, 4):
        for x in range(d):
            assert output_label(swap_circuit(d), (x, x)) == (x, x)


def test_simulate_matches_unitary():
    for d in (2, 3, 4, 5, 8):
        for builder in (
            swap_circuit,
            swap_circuit_alt,
            cx_tilde_decomposition,
            cx_tilde_decomposition_alt,
            asymmetric_swap_circuit,
            partial_swap_circuit,
        ):
            circ = builder(d)
            u = circuit_unitary(circ)
            for s in random_states(d, 2, 3, seed=d):
                diff = np.abs(simulate(circ, s).amps - apply(u, s).amps)
                assert float(diff.max()) <= 1e-10


def test_simulate_swaps_product_states():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi /= np.linalg.norm(phi)
        psi /= np.linalg.norm(psi)
        s = StateVector(d, 2, np.kron(phi, psi))
        out = simulate(swap_circuit(d), s)
        assert np.max(np.abs(out.amps - np.kron(psi, phi))) <= 1e-10


def test_simulate_swaps_entangled_states():
    for d in (2, 3, 4, 5, 8):
        transpose = [y * d + x for x in range(d) for y in range(d)]
        for s in random_states(d, 2, 5, seed=100 + d):
            out = simulate(swap_circuit(d), s)
            assert np.max(np.abs(out.amps - s.amps[transpose])) <= 1e-10


@pytest.mark.parametrize("d", range(2, 33))
def test_decomposition_reproduces_cx_tilde(d):
    target = cx_tilde(d)
    assert max_entry_dist(circuit_unitary(cx_tilde_decomposition(d)), target) <= 1e-10
    assert (
        max_entry_dist(circuit_unitary(cx_tilde_decomposition_alt(d)), target) <= 1e-10
    )


def test_decompositions_compose_to_identity():
    for d in (2, 5, 9):
        c = Circuit(d, 2, cx_tilde_decomposition(d).ops + cx_tilde_decomposition_alt(d).ops)
        assert max_entry_dist(circuit_unitary(c), identity_gate(d, 2)) <= 1e-10


def test_decomposition_d2_variants_agree():
    a = circuit_unitary(cx_tilde_decomposition(2))
    b = circuit_unitary(cx_tilde_decomposition_alt(2))
    assert max_entry_dist(a, b) <= 1e-12


@pytest.mark.parametrize("d", range(2, 17))
def test_asymmetric_swap_exact(d):
    assert max_entry_dist(circuit_unitary(asymmetric_swap_circuit(d)), swap_ref(d)) == 0


def test_asymmetric_swap_trace():
    circ = asymmetric_swap_circuit(3)
    assert oracle_trace(circ, (1, 2)) == [(1, 2), (1, 0), (1, 0), (1, 1), (2, 1)]
    assert output_label(circ, (1, 2)) == (2, 1)


def test_asymmetric_swap_d2_is_qubit_swap():
    # the complement gate acts as identity at d=2
    assert max_entry_dist(circuit_unitary(asymmetric_swap_circuit(2)), swap_ref(2)) == 0


def test_partial_swap_on_basis():
    circ = partial_swap_circuit(3)
    assert oracle_trace(circ, (2, 0)) == [(2, 0), (2, 2), (0, 2)]
    assert output_label(circ, (2, 0)) == (0, 2)


def test_partial_swap_random_phi():
    rng = np.random.default_rng(9)
    for d in (2, 3, 5):
        circ = partial_swap_circuit(d)
        for _ in range(10):
            phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            phi /= np.linalg.norm(phi)
            amps = np.zeros(d * d, dtype=complex)
            amps[::d] = phi
            out = simulate(circ, StateVector(d, 2, amps))
            expected = np.zeros(d * d, dtype=complex)
            expected[:d] = phi
            assert np.max(np.abs(out.amps - expected)) <= 1e-10


def test_partial_swap_is_not_a_full_swap():
    dev = max_entry_dist(circuit_unitary(partial_swap_circuit(3)), swap_ref(3))
    assert dev > 0.5


def test_expand_cx_tilde():
    circ = expand_cx_tilde(swap_circuit(3))
    assert len(circ.ops) == 9
    assert all(op.kind is not GateKind.CXTilde for op in circ.ops)
    # non-CXT ops pass through untouched
    same = expand_cx_tilde(partial_swap_circuit(3))
    assert same == partial_swap_circuit(3)


@pytest.mark.parametrize("d", range(2, 17))
def test_nine_gate_swap(d):
    circ = expand_cx_tilde(swap_circuit(d))
    assert max_entry_dist(circuit_unitary(circ), swap_ref(d)) <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_builder_unitaries_are_unitary(d):
    for builder in (
        swap_circuit,
        swap_circuit_alt,
        cx_tilde_decomposition,
        cx_tilde_decomposition_alt,
        asymmetric_swap_circuit,
        partial_swap_circuit,
    ):
        u = circuit_unitary(builder(d))
        assert max_entry_dist(matmul(u.dagger(), u), identity_gate(d, 2)) <= 1e-10


def test_simulate_dimension_mismatch():
    with pytest.raises(DimensionError):
        simulate(swap_circuit(3), basis_state((0, 0), 2))

@pytest.fixture
def build_count(monkeypatch):
    """Count every gate build: one counting wrapper per constructor, in ``_BUILDERS``
    and under each module name the package calls it by, so the wrappers share keys."""
    import quditswap.gates as gates_mod
    import quditswap.verify as verify_mod

    calls = []

    def counted(kind, build):
        def wrapper(*args):
            calls.append(kind)
            return build(*args)
        return wrapper

    wrapped = {build: counted(kind, build) for kind, build in gates_mod._BUILDERS.items()}
    for kind, build in list(gates_mod._BUILDERS.items()):
        monkeypatch.setitem(gates_mod._BUILDERS, kind, wrapped[build])
    for mod, name in ((gates_mod, "qft"), (verify_mod, "cx_tilde"), (verify_mod, "swap_ref"),
                      (verify_mod, "identity_gate")):
        monkeypatch.setattr(mod, name, wrapped[getattr(mod, name)])
    return calls


def test_circuit_unitary_builds_each_gate_kind_once(build_count):
    circuit_unitary(cx_tilde_decomposition(5))
    assert build_count == [GateKind.QFT, GateKind.CZd]


def test_simulate_builds_each_gate_kind_once(build_count):
    c = expand_cx_tilde(swap_circuit(3))
    simulate(c, basis_state((1, 2), 3))
    assert len(c.ops) == 9
    assert build_count == [GateKind.QFT, GateKind.CZd]


def test_cli_simulate_builds_each_gate_kind_once(build_count, tmp_path, capsys):
    from quditswap.cli import main

    f = tmp_path / "decomp.qc"
    f.write_text("dim 4\nwires 2\nQFT 2\nCZ 1 2\nQFT 2\nCXT 2 1\n")
    assert main(["simulate", "--circuit", str(f), "--input", "1,1"]) == 0
    assert build_count == [GateKind.QFT, GateKind.CZd, GateKind.CXTilde]


def test_verify_all_builds_each_gate_kind_once_per_circuit(build_count):
    # the rows and their circuits share one gate set per d: each of the ten
    # constructors runs once (the IQFT's QFT is the circuits' QFT); delta_sum
    # builds none
    verify_all(32, 32)
    assert Counter(build_count) == {kind: 1 for kind in GateKind}
    verify_all(32, 33)
    assert len(build_count) == 10 + 20


def test_a_builder_patched_between_verify_all_calls_is_seen(monkeypatch):
    import functools

    import quditswap.gates as gates_mod

    assert all(r.passed for r in verify_all(3, 3))

    @functools.wraps(cx_tilde)  # named like the builder, as a profiling hook's wrapper is
    def identity_instead(d):
        return identity_gate(d, 2)

    monkeypatch.setitem(gates_mod._BUILDERS, GateKind.CXTilde, identity_instead)
    failed = {r.identity_name for r in verify_all(3, 3) if not r.passed}
    # the decomposition's target stays the true table; the identity squared passes
    assert failed == {"swap", "random_states"}


def test_a_row_that_raises_leaves_no_gate_set_behind(monkeypatch):
    import quditswap.gates as gates_mod
    import quditswap.verify as verify_mod

    def boom(d):
        raise RuntimeError("row failed")

    monkeypatch.setitem(verify_mod.IDENTITIES, "delta_sum", (boom, lambda d: 0.0))
    with pytest.raises(RuntimeError):
        verify_all(4, 4)
    assert gates_mod.GATE_SET.get() is None
    # outside a gate set, every build is a new gate
    assert cx_tilde_decomposition(4).gates[0] is not cx_tilde_decomposition(4).gates[0]


def test_verify_all_takes_each_table_distance_once_per_d(monkeypatch):
    import quditswap.verify as verify_mod

    calls, dist = [], verify_mod.table_dist
    monkeypatch.setattr(verify_mod, "table_dist", lambda c, t: calls.append(c) or dist(c, t))
    # swap 2, decomposition 2, self_inverse 1, asymmetric_swap 1; random_states
    # reads the swap row's distance of swap_circuit(d) from the SWAP table
    assert all(r.passed for r in verify_all(5, 5))
    assert len(calls) == len(set(calls)) == 6


def test_ops_carry_no_dimension_and_serve_every_d():
    ops = swap_circuit(3).ops
    for d in range(2, 9):
        assert Circuit(d, 2, ops) == swap_circuit(d)
        assert table_dist(Circuit(d, 2, ops), swap_ref(d)) == 0
        assert verify_identity("swap", d).passed
    assert Circuit(3, 2, ops) != Circuit(4, 2, ops)
