"""Workload inputs, item runners, output checks and the statevector oracle.

A workload is a fixed list of items that one pass runs in order:

* ``verify_sweep``: one ``verify_all(d, d, seed)`` call for every d in 2..16.
* ``verify_large_d``: the same call at d = 32 and d = 40.
* ``simulate_register``: one in-process ``quditswap simulate`` call per
  seeded random circuit, two circuits per register shape.

Every item's output is checked by code in this file, never by the program
under test.  The simulate oracle is built from the paper's gate formulas and
contracts each gate onto the ``(d,)*n`` state; it shares no code with
``quditswap``.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VERIFY_DIMS = {
    "verify_sweep": tuple(range(2, 17)),
    "verify_large_d": (32, 40),
}
# (d, n) register shapes, 729..2187 amplitudes.
REGISTERS = ((3, 6), (2, 10), (4, 5), (32, 2), (3, 7))
WORKLOADS = (*VERIFY_DIMS, "simulate_register")

IDENTITIES = (
    "swap",
    "decomposition",
    "self_inverse",
    "delta_sum",
    "asymmetric_swap",
    "partial_swap",
    "random_states",
)
EXACT_IDENTITIES = frozenset({"swap", "self_inverse", "asymmetric_swap"})
DENSE_TOL = 1e-10
AMP_TOL = 1e-10

# Gate pools by (kind, arity).  Each op of a circuit template fixes kind and
# arity; its wires come from a generator seeded by the register shape alone.
# The cost of a circuit therefore does not depend on the workload seed, which
# picks the gate within its pool and the input.
POOLS = {
    ("perm", 1): ("X", "ID"),
    ("perm", 2): ("CXT", "CX", "CXD", "SWAP"),
    ("dense", 1): ("QFT", "IQFT"),
    ("dense", 2): ("CZ", "CZD"),
}
PERM_TEMPLATE = (("perm", 2), ("perm", 1), ("perm", 2), ("perm", 2), ("perm", 1), ("perm", 2))
MIXED_TEMPLATE = (("dense", 1), ("perm", 2), ("dense", 2), ("perm", 1), ("dense", 1), ("perm", 2))


# ---------------------------------------------------------------- oracle

def oracle_gate(name: str, d: int) -> np.ndarray:
    """Matrix (out index, in index) of a gate, straight from its formula."""
    r = np.arange(d)
    if name in ("QFT", "IQFT"):
        sign = 1 if name == "QFT" else -1
        return np.exp(sign * 2j * np.pi * (np.outer(r, r) % d) / d) / math.sqrt(d)
    x, y = np.divmod(np.arange(d * d), d)
    if name in ("CZ", "CZD"):
        sign = 1 if name == "CZ" else -1
        return np.diag(np.exp(sign * 2j * np.pi * ((x * y) % d) / d))
    if name in ("X", "ID"):
        src, dst = r, (-r % d if name == "X" else r)
    else:
        src = x * d + y
        dst = {
            "CXT": x * d + (-x - y) % d,
            "CX": x * d + (x + y) % d,
            "CXD": x * d + (y - x) % d,
            "SWAP": y * d + x,
        }[name]
    m = np.zeros((src.size, src.size), dtype=np.complex128)
    m[dst, src] = 1.0
    return m


def oracle_run(d: int, n: int, ops, amps: np.ndarray) -> np.ndarray:
    """Apply ``ops`` (mnemonic, wires) in order to a flat amplitude vector."""
    psi = np.asarray(amps, dtype=np.complex128).reshape((d,) * n)
    for name, wires in ops:
        k = len(wires)
        axes = [w - 1 for w in wires]
        g = oracle_gate(name, d).reshape((d,) * (2 * k))
        psi = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, list(range(k)), axes)
    return psi.reshape(-1)


# ---------------------------------------------------------------- checks

def check_verify(d: int, reports) -> str | None:
    """Reason the reports for one ``verify_all(d, d)`` item are wrong, or None."""
    names = tuple(getattr(r, "identity_name", None) for r in reports)
    if names != IDENTITIES:
        return f"d={d}: identities {names}, expected {IDENTITIES}"
    for r in reports:
        if r.d != d:
            return f"d={d}: {r.identity_name} reported d={r.d}"
        if not r.passed:
            return f"d={d}: {r.identity_name} did not pass (max_dev={r.max_dev!r})"
        if r.identity_name in EXACT_IDENTITIES:
            limit = 0.0
        elif r.identity_name == "delta_sum":
            limit = 1e-9 * d
        else:
            limit = DENSE_TOL
        if not r.max_dev <= limit:
            return f"d={d}: {r.identity_name} max_dev={r.max_dev!r} > {limit!r}"
    return None


@dataclass(frozen=True)
class SimCase:
    """One simulate item: the generated files and the oracle's answer."""

    name: str
    d: int
    n: int
    argv: tuple[str, ...]
    expected_label: tuple[int, ...] | None
    expected_amps: np.ndarray | None


def check_simulate(case: SimCase, result) -> str | None:
    """Reason a ``(exit code, stdout)`` pair for ``case`` is wrong, or None."""
    code, out = result
    if code != 0:
        return f"{case.name}: exit code {code!r}"
    if case.expected_label is not None:
        want = ",".join(map(str, case.expected_label))
        if out.strip() != want:
            return f"{case.name}: label {out.strip()!r}, expected {want!r}"
        return None
    size = case.d**case.n
    got = np.zeros(size, dtype=np.complex128)
    seen = set()
    for line in out.splitlines():
        parts = line.split()
        try:
            if len(parts) != 3:
                raise ValueError
            idx, re_, im = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            return f"{case.name}: malformed amplitude line {line!r}"
        if not 0 <= idx < size or idx in seen:
            return f"{case.name}: bad or repeated index {idx}"
        seen.add(idx)
        got[idx] = complex(re_, im)
    dev = float(np.max(np.abs(got - case.expected_amps)))
    if not dev <= AMP_TOL:
        return f"{case.name}: amplitude deviation {dev!r} > {AMP_TOL!r}"
    return None


# ---------------------------------------------------------------- inputs

def _random_circuit(rng, d: int, n: int, template) -> list[tuple[str, tuple[int, ...]]]:
    shape_rng = np.random.default_rng([d, n, len(template), *(a for _, a in template)])
    ops = []
    for kind, arity in template:
        pool = POOLS[(kind, arity)]
        name = pool[int(rng.integers(len(pool)))]
        wires = tuple(int(w) + 1 for w in shape_rng.choice(n, size=arity, replace=False))
        ops.append((name, wires))
    return ops


def _qc_text(d: int, n: int, ops) -> str:
    body = "".join(f"{name} {' '.join(map(str, wires))}\n" for name, wires in ops)
    return f"dim {d}\nwires {n}\n{body}"


def _random_amps(rng, size: int) -> np.ndarray:
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


def make_sim_cases(seed: int, workdir: Path, registers=REGISTERS) -> list[SimCase]:
    """Write the seeded circuits and states under ``workdir``; return the cases.

    Per register: a permutation-only circuit run on a basis label, and a
    circuit with three dense gates out of six run on an amplitude file.
    """
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for d, n in registers:
        tag = f"{d}^{n}"
        ops = _random_circuit(rng, d, n, PERM_TEMPLATE)
        label = tuple(int(x) for x in rng.integers(0, d, size=n))
        basis = np.zeros(d**n, dtype=np.complex128)
        basis[np.ravel_multi_index(label, (d,) * n)] = 1.0
        out = oracle_run(d, n, ops, basis)
        idx = int(np.argmax(np.abs(out)))
        if abs(out[idx]) != 1.0:
            raise RuntimeError(f"oracle: {tag} permutation circuit left the basis")
        qc = workdir / f"perm_{d}_{n}.qc"
        qc.write_text(_qc_text(d, n, ops), encoding="utf-8")
        cases.append(SimCase(
            f"{tag}/perm", d, n,
            ("simulate", "--circuit", str(qc), "--input", ",".join(map(str, label))),
            tuple(int(x) for x in np.unravel_index(idx, (d,) * n)), None,
        ))

        ops = _random_circuit(rng, d, n, MIXED_TEMPLATE)
        amps = _random_amps(rng, d**n)
        qc = workdir / f"mixed_{d}_{n}.qc"
        qc.write_text(_qc_text(d, n, ops), encoding="utf-8")
        state = workdir / f"state_{d}_{n}.txt"
        state.write_text(
            "".join(f"{float(a.real)!r} {float(a.imag)!r}\n" for a in amps),
            encoding="utf-8",
        )
        cases.append(SimCase(
            f"{tag}/mixed", d, n,
            ("simulate", "--circuit", str(qc), "--state", str(state)),
            None, oracle_run(d, n, ops, amps),
        ))
    return cases


# ---------------------------------------------------------------- workloads

class VerifyWorkload:
    """Items are dimensions d; each runs ``verify_all(d, d, seed)``."""

    def __init__(self, qs, dims, seed: int):
        self.qs = qs
        self.items = list(dims)
        self.warm_items = [2, 3]
        self.seed = seed

    def run(self, d):
        return self.qs.verify_all(d, d, self.seed)

    def check(self, d, out) -> str | None:
        return check_verify(d, out)

    def label(self, d) -> str:
        return f"d={d}"


class SimulateWorkload:
    """Items are :class:`SimCase`; each runs ``cli.main(argv)`` in-process."""

    def __init__(self, cli, cases, warm_cases):
        self.cli = cli
        self.items = list(cases)
        self.warm_items = list(warm_cases)

    def run(self, case):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.cli.main(list(case.argv))
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def check(self, case, out) -> str | None:
        return check_simulate(case, out)

    def label(self, case) -> str:
        return case.name


def build(name: str, seed: int, workdir: Path):
    """Generate the inputs of workload ``name`` and return its runner."""
    import quditswap
    from quditswap import cli

    if name in VERIFY_DIMS:
        return VerifyWorkload(quditswap, VERIFY_DIMS[name], seed)
    if name == "simulate_register":
        cases = make_sim_cases(seed, workdir)
        warm = make_sim_cases(seed + 1, workdir / "warm", registers=((3, 3),))
        return SimulateWorkload(cli, cases, warm)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
