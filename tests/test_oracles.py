"""The fast gate forms and the wire-axis kernel against the slow oracles."""

import contextlib
import io
import json
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from quditswap import circuit, cli
from quditswap.circuit import (
    Circuit,
    GateOp,
    _run,
    asymmetric_swap_circuit,
    circuit_unitary,
    cx_tilde_decomposition,
    cx_tilde_decomposition_alt,
    expand_cx_tilde,
    gate_matrix,
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
    identity_matrix,
    max_entry_dist,
)
from quditswap.dsl import render
from quditswap.gates import GateKind, cx_tilde, cz_d, qft, swap_ref
from quditswap.verify import IDENTITIES, verify_all, verify_identity

KINDS = list(GateKind)
PERM_KINDS = [k for k in KINDS if oracles.perm_table(k, 2) is not None]


@st.composite
def circuits_on(draw, d, n, kinds=KINDS):
    kinds = [k for k in kinds if k.arity <= n]
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        wires = draw(st.permutations(range(1, n + 1)))[: kind.arity]
        ops.append(GateOp(kind, tuple(wires), d))
    return Circuit(d, n, tuple(ops))


@st.composite
def circuits(draw):
    return draw(circuits_on(draw(st.integers(2, 5)), draw(st.integers(1, 4))))


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


@settings(deadline=None, max_examples=150)
@given(circuits(), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(Circuit(3, 3, (GateOp(GateKind.QFT, (2,), 3), GateOp(GateKind.CZd, (3, 2), 3),
                        GateOp(GateKind.QFT, (2,), 3), GateOp(GateKind.CXd, (3, 1), 3),
                        GateOp(GateKind.CXd, (3, 1), 3), GateOp(GateKind.IQFT, (1,), 3))),
         2, 0)
@example(Circuit(2, 4, (GateOp(GateKind.SWAP, (4, 1), 2), GateOp(GateKind.CXTilde, (4, 1), 2),
                        GateOp(GateKind.Xd, (1,), 2), GateOp(GateKind.CXdDag, (2, 1), 2))),
         3, 1)
def test_run_in_place_matches_oracle_product(c, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c.d**c.n, cols)) + 1j * rng.standard_normal((c.d**c.n, cols))
    want = oracles.unitary(c) @ x
    got = _run(c, x.copy())
    assert got.shape == want.shape
    if all(oracles.perm_table(op.kind, c.d) is not None for op in c.ops):
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12


def test_run_of_an_empty_circuit_returns_the_input_values():
    x = np.arange(12, dtype=np.complex128).reshape(12, 1) * (1 - 2j)
    assert np.array_equal(_run(Circuit(2, 2), x.reshape(4, 3).copy()), x.reshape(4, 3))
    assert np.array_equal(_run(Circuit(12, 1), x.copy()), x)


def test_simulate_leaves_its_input_unchanged_and_read_only():
    c = cx_tilde_decomposition(3)
    amps = _random_amps(5, 9)
    s = StateVector(3, 2, amps)
    before = s.amps.copy()
    out = simulate(c, s)
    assert np.array_equal(s.amps, before) and not s.amps.flags.writeable
    assert not np.array_equal(out.amps, before)


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


@st.composite
def circuit_and_table(draw):
    """A circuit and a table of its size.

    The table is a random permutation, or the table of a random circuit of
    permutation gates.  The circuit is a random mixed one, whose blocks the
    table's support often leaves, or that permutation circuit with its CXT
    gates expanded into QFT / CZ / QFT, within rounding of the table.
    """
    d, n = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    perm_circuit = draw(circuits_on(d, n, PERM_KINDS))
    table = circuit_unitary(perm_circuit)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        table = GateMatrix(perm=rng.permutation(d**n))
    if draw(st.booleans()):
        return expand_cx_tilde(perm_circuit), table
    return draw(circuits_on(d, n)), table


@settings(deadline=None, max_examples=150)
@given(circuit_and_table())
@example((cx_tilde_decomposition(4), cx_tilde(4)))
@example((cx_tilde_decomposition_alt(5), cx_tilde(5)))
@example((Circuit(3, 2, _ops(3, (GateKind.QFT, (2,)))), swap_ref(3)))
@example((Circuit(3, 2, _ops(3, (GateKind.CZd, (1, 2)))), cx_tilde(3)))
def test_table_dist_matches_dense_compare(drawn):
    c, table = drawn
    assert table_dist(c, table) == max_entry_dist(circuit_unitary(c), table)


def test_table_dist_counts_a_label_leaving_its_block():
    # QFT on wire 2 keeps wire 1 and makes every block entry 1/2 in size;
    # CX with control 2 moves every label whose second digit is not 0 off its block
    d = 4
    c = Circuit(d, 2, _ops(d, (GateKind.QFT, (2,))))
    table = circuit_unitary(Circuit(d, 2, _ops(d, (GateKind.CXd, (2, 1)))))
    assert table_dist(c, table) == max_entry_dist(circuit_unitary(c), table) == 1.0


def test_table_dist_rejects_a_target_that_is_not_a_table_of_its_size():
    c = cx_tilde_decomposition(3)
    with pytest.raises(DimensionError, match="permutation table"):
        table_dist(c, qft(9))
    with pytest.raises(DimensionError):
        table_dist(c, cx_tilde(4))


def test_verify_decomposition_allocates_less_than_a_quarter_of_the_unitary():
    d = 32
    verify_identity("decomposition", d)  # lazy set-up is not counted
    _, peak = _peak_bytes(lambda: verify_identity("decomposition", d))
    assert peak < d**4 * 16 / 4


def test_verify_decomposition_allocates_one_work_array():
    # the blocks and one work array of their size, the one abs, and small arrays
    d = 32
    verify_identity("decomposition", d)
    _, peak = _peak_bytes(lambda: verify_identity("decomposition", d))
    assert peak <= 2.5 * d**3 * 16


def test_simulate_allocates_one_copy_and_one_work_array():
    d, n = 2, 16
    rng = np.random.default_rng(3)
    wires = [rng.permutation(range(1, n + 1))[: kind.arity] for kind in KINDS * 2]
    c = Circuit(d, n, tuple(GateOp(kind, tuple(w), d) for kind, w in zip(KINDS * 2, wires)))
    s = StateVector(d, n, _random_amps(3, d**n))
    simulate(c, s)  # builds the gates
    _, peak = _peak_bytes(lambda: simulate(c, s))
    assert peak <= 2.25 * s.amps.nbytes


def test_unitary_and_compare_allocate_little_beyond_the_output():
    c, target = cx_tilde_decomposition(16), cx_tilde(16)
    u, build_peak = _peak_bytes(lambda: circuit_unitary(c))
    size = u.matrix.nbytes
    assert build_peak <= 1.5 * size
    for args in ((u, target), (target, u)):
        _, compare_peak = _peak_bytes(lambda: max_entry_dist(*args))
        assert compare_peak <= 0.75 * size


def test_table_dist_of_a_permutation_circuit_needs_only_the_state_budget():
    # 2^13 labels are over the unitary budget of 4096 but well within the state's
    d, n = 2, 13
    c = Circuit(d, n, (GateOp(GateKind.CXd, (1, 2), d),) * 2)
    assert table_dist(c, identity_matrix(d**n)) == 0.0
    once = Circuit(d, n, c.ops[:1])
    assert table_dist(once, identity_matrix(d**n)) == 1.0


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
    assert abs(verify_identity("delta_sum", d).max_dev - oracles.delta_sum_max_dev(d)) <= 1e-15


def test_exact_identities_zero_for_every_d():
    exact = {"swap", "self_inverse", "asymmetric_swap", "partial_swap", "random_states"}
    reports = [r for r in verify_all(2, 64) if r.identity_name in exact]
    assert len(reports) == 5 * 63
    for r in reports:
        assert r.max_dev == 0.0 and r.tolerance == 0.0, (r.identity_name, r.d)


def test_label_proofs_agree_with_sampled_checks():
    for d in range(2, 65):
        for name, sampled in (("partial_swap", oracles.sampled_partial_swap),
                              ("random_states", oracles.sampled_random_states)):
            assert verify_identity(name, d).max_dev == sampled(d) == 0.0, (name, d)


def _one_exchange(build):
    """``build`` with one exchange: rows 0 and 1 of a dense gate, entries 0 and 1
    of a one-qudit table, the entries of labels (1, 0) and (1, 1) of a two-qudit
    table or phase vector."""
    def mutant(d):
        g = build(d)
        if g.matrix is not None:
            return GateMatrix(g.matrix[[1, 0, *range(2, d)]])
        held = (g.perm if g.perm is not None else g.phases).copy()
        i, j = (0, 1) if held.size == d else (d, d + 1)
        held[[i, j]] = held[[j, i]]
        return GateMatrix(perm=held) if g.perm is not None else GateMatrix(phases=held)
    return mutant


# the mutant is the table of each circuit's first op, which reads (1, 0) for
# label (1, 0) of the partial swap and for label (0, 1) of SWAP
@pytest.mark.parametrize("name,sampled,kind", [
    ("partial_swap", oracles.sampled_partial_swap, GateKind.CXd),
    ("random_states", oracles.sampled_random_states, GateKind.CXTilde),
], ids=["partial_swap", "random_states"])
@pytest.mark.parametrize("d", [2, 3, 7, 64])
def test_label_proofs_and_sampled_checks_fail_on_one_exchanged_entry(
        monkeypatch, name, sampled, kind, d):
    monkeypatch.setitem(circuit._BUILDERS, kind, _one_exchange(circuit._BUILDERS[kind]))
    r = verify_identity(name, d)
    assert r.max_dev == 1.0 and not r.passed
    assert sampled(d) > 0.0


# each table row's circuits and target, compared densely by the slow oracle
_DENSE_ROWS = {
    "swap": (lambda d: (swap_circuit(d), swap_circuit_alt(d)), swap_ref),
    "decomposition": (
        lambda d: (cx_tilde_decomposition(d), cx_tilde_decomposition_alt(d)), cx_tilde),
    "self_inverse": (
        lambda d: (Circuit(d, 2, _ops(d, (GateKind.CXTilde, (1, 2)), (GateKind.CXTilde, (1, 2)))),),
        lambda d: identity_matrix(d * d)),
    "asymmetric_swap": (lambda d: (asymmetric_swap_circuit(d),), swap_ref),
    "random_states": (lambda d: (swap_circuit(d),), swap_ref),
}


def _oracle_dev(name, d):
    if name == "partial_swap":
        return oracles.sampled_partial_swap(d)
    if name == "delta_sum":
        return oracles.delta_sum_max_dev(d)
    circuits, target = _DENSE_ROWS[name]
    return max(max_entry_dist(circuit_unitary(c), target(d)) for c in circuits(d))


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@pytest.mark.parametrize("d", [2, 3, 7])
def test_every_row_fails_exactly_when_the_slow_oracle_does(monkeypatch, kind, d):
    monkeypatch.setitem(circuit._BUILDERS, kind, _one_exchange(circuit._BUILDERS[kind]))
    failed = []
    for name in IDENTITIES:
        r = verify_identity(name, d)
        assert r.passed == (_oracle_dev(name, d) <= r.tolerance), (name, r.max_dev)
        failed += [] if r.passed else [name]
    # every kind that some row's circuits use is caught by one row at least
    assert bool(failed) == (kind not in (GateKind.SWAP, GateKind.Identity))


def _cli_out(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_label_path(qc, c, label):
    """``quditswap simulate --input`` on a table circuit against simulate + argmax."""
    qc.write_text(render(c), encoding="utf-8")
    out = simulate(c, basis_state(label, c.d))
    want = [int(x) for x in np.unravel_index(np.argmax(np.abs(out.amps)), (c.d,) * c.n)]
    argv = ["simulate", "--circuit", str(qc), "--input", ",".join(map(str, label))]
    assert _cli_out(argv) == (0, ",".join(map(str, want)) + "\n")
    assert _cli_out(argv + ["--json"]) == (0, json.dumps({"label": want}) + "\n")


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 5).flatmap(lambda d: st.integers(1, 6).flatmap(lambda n: st.tuples(
    circuits_on(d, n, PERM_KINDS), st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))))
def test_cli_label_path_matches_simulate(case):
    c, label = case
    with tempfile.TemporaryDirectory() as tmp:
        _check_label_path(Path(tmp) / "perm.qc", c, tuple(label))


def _random_perm_circuit(rng, d, n, count):
    ops = []
    for _ in range(count):
        kind = PERM_KINDS[rng.integers(len(PERM_KINDS))]
        wires = rng.permutation(n)[: kind.arity] + 1
        ops.append(GateOp(kind, tuple(wires), d))
    return Circuit(d, n, tuple(ops))


def test_cli_label_path_matches_simulate_on_2_to_the_13(tmp_path):
    rng = np.random.default_rng(13)
    c = _random_perm_circuit(rng, 2, 13, 40)
    for _ in range(3):
        _check_label_path(tmp_path / "perm.qc", c, tuple(rng.integers(0, 2, 13).tolist()))


def test_cli_label_path_allocates_no_register(tmp_path):
    # 2^20 amplitudes would take 16 MB; one label's digits take 160 B
    rng = np.random.default_rng(20)
    c = _random_perm_circuit(rng, 2, 20, 40)
    label = tuple(rng.integers(0, 2, 20).tolist())
    qc = tmp_path / "perm.qc"
    qc.write_text(render(c), encoding="utf-8")
    argv = ["simulate", "--circuit", str(qc), "--input", ",".join(map(str, label))]
    (code, out), peak = _peak_bytes(lambda: _cli_out(argv))
    assert code == 0 and peak < 2**20
    amps = simulate(c, basis_state(label, 2)).amps
    assert out == ",".join(map(str, np.unravel_index(np.argmax(np.abs(amps)), (2,) * 20))) + "\n"


def test_large_gates_hold_no_dense_matrix():
    for g in (cx_tilde(64), swap_ref(64), cz_d(64)):
        held = [a for a in (g.matrix, g.perm, g.phases) if a is not None]
        assert len(held) == 1 and held[0].size <= 4096


def _state_file(path, amps):
    """Amplitude file in each form the reader takes: spaces, commas, comments, blank lines."""
    forms = ("{!r} {!r}\n", "{!r},{!r}  # amplitude\n", "  {!r} , {!r}\t\n")
    lines = [forms[i % 3].format(float(a.real), float(a.imag)) for i, a in enumerate(amps)]
    path.write_text("# state\n\n" + "".join(lines), encoding="utf-8")


def _check_simulate_io(tmp, d, n, amps):
    """Reader and amplitude output of ``quditswap simulate`` against the oracles.

    An ID gate moves the amplitudes unchanged, so the output shows the
    formatter alone.
    """
    state, qc = tmp / "state.txt", tmp / "id.qc"
    _state_file(state, amps)
    qc.write_text(f"dim {d}\nwires {n}\nID 1\n", encoding="utf-8")
    want = oracles.load_state(state, d, n).amps
    got = cli._load_state(str(state), d, n).amps
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for flags in ((), ("--json",)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["simulate", "--circuit", str(qc), "--state", str(state), *flags]) == 0
        assert buf.getvalue() == oracles.format_amplitudes(want, bool(flags))


def test_simulate_io_matches_oracle_at_the_edges(tmp_path):
    eps = cli.AMP_EPSILON
    parts = [0.0, -0.0, 5e-324, -2.5e-308, eps, -eps, np.nextafter(eps, 0),
             np.nextafter(eps, 1), 0.6, -1.0]
    amps = np.array([complex(re, im) for re in parts for im in parts])
    _check_simulate_io(tmp_path, 10, 2, amps)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 1), (3, 2), (2, 5), (5, 2)]),
       st.sampled_from([1.0, 1e-11]))
def test_simulate_io_matches_oracle_on_random_states(seed, shape, scale):
    d, n = shape
    with tempfile.TemporaryDirectory() as tmp:
        _check_simulate_io(Path(tmp), d, n, scale * _random_amps(seed, d**n))


@pytest.mark.parametrize("text", [
    "1 0\n",  # too few amplitudes
    "1 0\n0 0 0\n",
    "1 0\n,\n",
    "1 0\n,\n0 0\n",  # the count is right, but a line of commas alone is no pair
    "1 0\n , ,# c\n0 0\n",
    ",\n1 0\n0 0\n",
    "1 0\nabc 0\n",
    "x 0\n1 2 3\n",  # the bad number comes first
])
def test_load_state_errors_match_oracle(tmp_path, text):
    f = tmp_path / "state.txt"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as want:
        oracles.load_state(f, 2, 1)
    with pytest.raises(ValueError) as got:
        cli._load_state(str(f), 2, 1)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("text", ["", "# a comment\n\n  # another\n"])
def test_simulate_state_without_data_is_usage_error(tmp_path, capsys, text):
    state, qc = tmp_path / "state.txt", tmp_path / "id.qc"
    state.write_text(text, encoding="utf-8")
    qc.write_text("dim 2\nwires 1\nID 1\n", encoding="utf-8")
    with pytest.raises(ValueError) as want:
        oracles.load_state(state, 2, 1)
    assert "expected 2 amplitudes, got (0,)" in str(want.value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["simulate", "--circuit", str(qc), "--state", str(state)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {want.value}\n")
    assert caught == []


def _load_outcome(load, path, d, n):
    """Float64 bits of the loaded amplitudes, or the exception's type and message."""
    try:
        return load(path, d, n).amps.view(np.uint64).tolist()
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)


_SEPARATORS = [" ", "\t", ",", "\x0b", "\x0c", "\x1c", "\x85", "\xa0"]
_STATE_ALPHABET = [*"0123456789+-.eE_,# ", *_SEPARATORS[1:], "nan", "inf", "\n", "\r\n"]
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-99, 99).map(str))
_number = st.one_of(
    _finite,
    st.lists(st.sampled_from([*"0123456789+-.eE_", "nan", "inf"]), min_size=1, max_size=6).map("".join),
)
_sep = st.lists(st.sampled_from(_SEPARATORS), max_size=3).map("".join)


def _pair_line(number):
    return st.tuples(
        _sep, number, _sep.filter(bool), number, _sep, st.sampled_from(["", "#", "# 1 2"]),
    ).map("".join)


_noise_line = st.lists(st.sampled_from(_STATE_ALPHABET), max_size=12).map("".join)


def _lines(line, ends):
    return st.lists(st.tuples(line, st.sampled_from(ends)), max_size=8).map(
        lambda lines: "".join(a + b for a, b in lines))


_state_text = st.one_of(
    _lines(_pair_line(_finite), ["\n", "\r\n", "\r"]),
    _lines(st.one_of(_pair_line(_number), _noise_line), ["\n", "\r\n", "\r", ""]),
)


@settings(deadline=None, max_examples=300)
@given(_state_text)
@example("1 0\n2 0\n")
@example("1_0 0\n2,0\n")
@example("1 0\r\n\xa0-0\x1c.5e1 # c\n")
@example("1 0\n,\n0 0\n")
@example("1 0\n0 0 0\n")
def test_load_state_matches_oracle_on_drawn_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "state.txt"
        f.write_bytes(text.encode("utf-8"))
        want = _load_outcome(oracles.load_state, f, 2, 1)
        assert _load_outcome(cli._load_state, str(f), 2, 1) == want
        count = re.fullmatch(r"expected 2 amplitudes, got \((\d+),\)", str(want[-1]))
        if count and int(count[1]) >= 2:  # compare the values, on a register that holds them
            d = int(count[1])
            assert _load_outcome(cli._load_state, str(f), d, 1) == _load_outcome(
                oracles.load_state, f, d, 1)


@pytest.mark.parametrize("rows", [0, 1, cli._ROWS_PER_WRITE - 1, cli._ROWS_PER_WRITE,
                                  cli._ROWS_PER_WRITE + 1])
def test_simulate_text_output_is_batched_byte_for_byte(tmp_path, capsys, rows):
    n = (cli._ROWS_PER_WRITE + 1).bit_length()
    amps = _random_amps(rows, 2**n)
    amps[rows:] *= 1e-13  # below AMP_EPSILON: not printed
    state, qc = tmp_path / "state.txt", tmp_path / "id.qc"
    _state_file(state, amps)
    qc.write_text(f"dim 2\nwires {n}\nID 1\n", encoding="utf-8")
    want = oracles.format_amplitudes(oracles.load_state(state, 2, n).amps, as_json=False)
    assert want.count("\n") == rows
    assert cli.main(["simulate", "--circuit", str(qc), "--state", str(state)]) == 0
    got = capsys.readouterr().out
    # where the texts part, not a diff: diffing megabytes of text takes minutes
    same = len(os.path.commonprefix([got, want]))
    assert (same, len(got)) == (len(want), len(want))
