import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quditswap

from quditswap.core import DimensionError, StateVector
from quditswap.circuit import simulate, swap_circuit
from quditswap.verify import IDENTITIES, verify_all, verify_identity

from probes import peak_bytes


def test_verify_swap():
    r = verify_identity("swap", 2)
    assert r.passed and r.max_dev == 0
    r = verify_identity("swap", 7)
    assert r.passed and r.max_dev == 0
    with pytest.raises(DimensionError):
        verify_identity("swap", 1)


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_verify_identity_rejects_a_dimension_below_2(name):
    for d in (1, 0, -3):
        with pytest.raises(DimensionError):
            verify_identity(name, d)


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_verify_identity_rejects_a_dimension_above_64_before_allocating(name):
    def refuse(d):
        with pytest.raises(DimensionError, match="d must be in 2..64"):
            verify_identity(name, d)

    for d in (65, 4097):
        _, peak = peak_bytes(lambda: refuse(d))
        assert peak < 2**20, (d, peak)


def test_verify_identity_rejects_an_unknown_name_and_lists_the_known_ones():
    with pytest.raises(ValueError, match="unknown identity 'cnot'") as exc:
        verify_identity("cnot", 3)
    assert str(exc.value).endswith("known: " + ", ".join(IDENTITIES))


def test_identities_run_in_report_order():
    names = ["swap", "decomposition", "self_inverse", "delta_sum",
             "asymmetric_swap", "partial_swap", "random_states"]
    assert list(IDENTITIES) == names
    assert [r.identity_name for r in verify_all(3, 4)] == names * 2


def test_public_names_resolve():
    import types

    import quditswap

    for name in quditswap.__all__:
        assert getattr(quditswap, name, None) is not None, name
    assert len(set(quditswap.__all__)) == len(quditswap.__all__)
    assert isinstance(quditswap.verify, types.ModuleType)
    assert quditswap.verify_identity is quditswap.verify.verify_identity


def test_verify_decomposition_sweep():
    for d in range(2, 33):
        r = verify_identity("decomposition", d)
        assert r.passed, (d, r.max_dev)
        assert r.max_dev <= 1e-10


def test_verify_self_inverse():
    for d in range(2, 33):
        assert verify_identity("self_inverse", d).max_dev == 0


def test_self_inverse_implies_self_adjoint():
    from quditswap.core import max_entry_dist
    from quditswap.gates import cx_tilde

    for d in (2, 3, 5, 8):
        g = cx_tilde(d)
        assert max_entry_dist(g, g.dagger()) <= 1e-12


def test_dense_self_inverse():
    from quditswap.circuit import Circuit, circuit_unitary, cx_tilde_decomposition
    from quditswap.core import max_entry_dist
    from quditswap.gates import identity_gate

    d = 5
    ops = cx_tilde_decomposition(d).ops
    squared = Circuit(d, 2, ops + ops)
    assert max_entry_dist(circuit_unitary(squared), identity_gate(d, 2)) <= 1e-10


def test_delta_sum_values():
    # d=2, (1,1,0): residue 0, sum is exactly d
    total = sum(np.exp(2j * np.pi * 2 * k / 2) for k in range(2))
    assert abs(total - 2) <= 1e-12
    # d=3, (1,1,0): nonzero residue, sum vanishes
    total = sum(np.exp(2j * np.pi * 2 * k / 3) for k in range(3))
    assert abs(total) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_verify_delta_sum(d):
    r = verify_identity("delta_sum", d)
    assert r.passed
    assert r.tolerance == 1e-9 * d


def test_verify_asymmetric_and_partial():
    for d in (2, 3, 5):
        assert verify_identity("asymmetric_swap", d).max_dev == 0
        assert verify_identity("partial_swap", d).passed


def test_random_state_check():
    r = verify_identity("random_states", 3)
    assert r.passed and r.max_dev <= 1e-10


def test_maximally_entangled_state_invariant():
    for d in (2, 3, 5):
        amps = np.zeros(d * d, dtype=complex)
        for k in range(d):
            amps[k * d + k] = 1 / np.sqrt(d)
        out = simulate(swap_circuit(d), StateVector(d, 2, amps))
        assert np.max(np.abs(out.amps - amps)) <= 1e-12


def test_verify_all_range():
    reports = verify_all(2, 2)
    assert {r.d for r in reports} == {2}
    with pytest.raises(ValueError):
        verify_all(5, 3)
    with pytest.raises(ValueError):
        verify_all(1, 4)


def test_verify_all_deterministic():
    a = verify_all(2, 4)
    b = verify_all(2, 4)
    assert [(r.identity_name, r.d, r.max_dev) for r in a] == [
        (r.identity_name, r.d, r.max_dev) for r in b
    ]


def test_verify_all_green():
    assert all(r.passed for r in verify_all(2, 16))


_HELD_ARRAYS_RUN = """
import resource
import numpy as np
from quditswap.verify import verify_all

def faults(passes):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(passes):
        verify_all(32, 32)
        verify_all(40, 40)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

held = [np.ones(1000 + k) for k in range(40)]  # arrays the caller keeps between calls
faults(3)
print(faults(10))
"""


def test_verify_all_faults_in_no_pages_while_the_caller_holds_arrays():
    # glibc returns the free top of the heap to the kernel; were a gate set's
    # label map made after a circuit's large array, the map would sit above it,
    # and each freed array would be given back and faulted in again: about
    # 1,000 minor faults (4 MB) a pass in this fresh process
    src = str(Path(quditswap.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _HELD_ARRAYS_RUN], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert int(out) < 10 * 100


_FIRST_PASSES_RUN = """
import resource
from quditswap.verify import verify_all

def faults(d):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    verify_all(d, d)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

verify_all(32, 32)
print(faults(40), faults(64))
"""


def test_the_first_pass_at_a_larger_d_faults_in_few_pages():
    # every buffer of a check is under glibc's 128 KiB mmap threshold, so a larger
    # d takes its pages from the heap; a d^(n+f) block array of 1 MB at d = 40 and
    # 4 MB at d = 64 was mapped anew: 747 minor faults at d = 40
    src = str(Path(quditswap.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FIRST_PASSES_RUN], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    at_40, at_64 = map(int, out.split())
    assert at_40 < 100 and at_64 < 100, (at_40, at_64)
