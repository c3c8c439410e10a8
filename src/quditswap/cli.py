"""Command-line front end: verify, matrix, simulate, parse.

Exit codes: 0 success (all checks passed), 1 verification failure,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np

from .circuit import Circuit, _check_budget, _follow, gate_matrix, simulate
from .core import StateVector, _check_digits, basis_state
from .dsl import MNEMONICS, ParseError, parse, render
from .verify import VerificationReport, check_d_range, verify_all

AMP_EPSILON = 1e-12
_ROWS_PER_WRITE = 16384  # text rows per % format and write, in place of one format per row


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args) -> int:
    try:
        check_d_range(args.d_min, args.d_max)
    except ValueError as exc:
        return _usage_error(f"--d-min {args.d_min} --d-max {args.d_max}: {exc}")
    if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
        return _usage_error(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    reports = verify_all(args.d_min, args.d_max)
    if args.tolerance is not None:
        reports = [
            VerificationReport(r.identity_name, r.d, r.max_dev, args.tolerance)
            for r in reports
        ]
    failures = 0
    for r in reports:
        if not r.passed:
            failures += 1
        if args.json:
            print(json.dumps({
                "identity": r.identity_name,
                "d": r.d,
                "max_dev": float(r.max_dev),
                "tolerance": float(r.tolerance),
                "passed": bool(r.passed),
            }))
        else:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{r.identity_name:<16} d={r.d:<3} max_dev={r.max_dev:.3e} "
                f"tol={r.tolerance:.1e} {status}"
            )
    summary = f"{len(reports) - failures}/{len(reports)} identities passed"
    if args.json:
        print(json.dumps({"summary": summary, "failures": failures}))
    else:
        print(summary)
    return 0 if failures == 0 else 1


def cmd_matrix(args) -> int:
    kind = MNEMONICS.get(args.gate)
    if kind is None:
        return _usage_error(f"unknown gate mnemonic {args.gate!r}")
    try:
        check_d_range(args.d, args.d)
    except ValueError as exc:
        return _usage_error(exc)
    m = gate_matrix(kind, args.d).entries
    if args.format == "json":
        rows = [[[float(v.real), float(v.imag)] for v in row] for row in m]
        print(json.dumps(rows))
    else:
        for row in m:
            print(";".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
    return 0


def _floats(tokens: list[str]) -> np.ndarray:
    return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))


def _read_lines(lines) -> np.ndarray:
    """(re, im) float pairs, flat, read one line at a time."""
    tokens: list[str] = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            _floats(tokens)  # a bad number on an earlier line is reported first
            raise ValueError(f"expected 're im' per line, got {raw!r}")
        tokens += parts
    return _floats(tokens)


def _parse_pairs(fh) -> np.ndarray | None:
    """(re, im) float pairs, flat, from numpy's C parser; None where it declines.

    The line reader decides every declined file: it reads ``1_0`` and
    commas, and words the errors.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            pairs = np.loadtxt(fh, comments="#", ndmin=2)
    except (ValueError, Warning):
        return None
    return pairs.ravel() if pairs.shape[1] == 2 else None


def _load_state(path: str, d: int, n: int) -> StateVector:
    with open(path, encoding="utf-8") as fh:
        pairs = _parse_pairs(fh)
        if pairs is None:
            fh.seek(0)
            pairs = _read_lines(fh)
    # (re, im) float pairs viewed as complex keep the sign of a zero part
    return StateVector(d, n, pairs.view(np.complex128))


def _read_circuit(path: str) -> Circuit | None:
    """Parse a .qc file, or print why it cannot be read and return None."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    return None


def cmd_simulate(args) -> int:
    circ = _read_circuit(args.circuit)
    if circ is None:
        return 2
    if (args.input is None) == (args.state is None):
        return _usage_error("exactly one of --input / --state is required")
    try:
        _check_budget(circ.d, circ.n)  # before the state allocates d^n amplitudes
        # building the gates here makes a gate over its budget a usage error
        permutation_only = all(g.perm is not None for g in circ.gates)
        if args.input is not None:
            digits = tuple(int(t) for t in args.input.split(","))
            if len(digits) != circ.n:
                raise ValueError(f"expected {circ.n} digits, got {len(digits)}")
            _check_digits(digits, circ.d)
            state = None if permutation_only else basis_state(digits, circ.d)
        else:
            state = _load_state(args.state, circ.d, circ.n)
    except (ValueError, OSError) as exc:
        return _usage_error(exc)

    if state is None:  # tables move a label to a label: follow it, allocate no state
        label = _follow(circ, np.array(digits)[:, None])[:, 0].tolist()
        if args.json:
            print(json.dumps({"label": label}))
        else:
            print(",".join(map(str, label)))
        return 0

    out = simulate(circ, state)
    idx = np.flatnonzero(np.abs(out.amps) >= AMP_EPSILON)
    kept = out.amps[idx]
    if args.json:
        rows = zip(idx.tolist(), kept.real.tolist(), kept.imag.tolist())
        entries = [{"index": i, "re": re, "im": im} for i, re, im in rows]
        print(json.dumps({"amplitudes": entries}))
        return 0
    for lo in range(0, idx.size, _ROWS_PER_WRITE):  # Python objects for one batch at a time
        i, amp = idx[lo:lo + _ROWS_PER_WRITE], kept[lo:lo + _ROWS_PER_WRITE]
        flat = [None] * (3 * i.size)
        flat[0::3], flat[1::3], flat[2::3] = i.tolist(), amp.real.tolist(), amp.imag.tolist()
        sys.stdout.write("%d %.17g %.17g\n" * i.size % tuple(flat))
    return 0


def cmd_parse(args) -> int:
    circ = _read_circuit(args.circuit)
    if circ is None:
        return 2
    sys.stdout.write(render(circ))
    return 0


@functools.cache  # built once; parse_args returns a fresh Namespace per call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quditswap",
        description="Construct, simulate and verify qudit SWAP circuits.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity suite over a range of d")
    v.add_argument("--d-min", type=int, required=True)
    v.add_argument("--d-max", type=int, required=True)
    v.add_argument("--tolerance", type=float, default=None,
                   help="override the pass/fail tolerance for every check")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("matrix", help="print a gate matrix")
    m.add_argument("--gate", required=True, help="DSL mnemonic, e.g. CXT, QFT, CZ")
    m.add_argument("--d", type=int, required=True)
    m.add_argument("--format", choices=("csv", "json"), default="csv")
    m.set_defaults(func=cmd_matrix)

    s = sub.add_parser("simulate", help="run a .qc circuit on an input state")
    s.add_argument("--circuit", required=True)
    s.add_argument("--input", help='basis label, e.g. "1,2"')
    s.add_argument("--state", help="amplitude file: one 're im' pair per line")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("parse", help="canonicalize a .qc circuit file")
    c.add_argument("--circuit", required=True)
    c.set_defaults(func=cmd_parse)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
