"""Command-line front end: verify, matrix, simulate, parse.

Exit codes: 0 success (all checks passed), 1 verification failure,
2 usage, parse, output or memory error.  The commands raise; ``main`` alone
turns each such error into one stderr line and exit 2, and flushes stdout
itself: a gone reader is an output error too.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from .circuit import Circuit, _follow, _run
from .core import (_SLAB, GateMatrix, StateVector, _check_budget, _check_digits, _dense_rows,
                   basis_state)
from .dsl import MNEMONICS, ParseError, parse, render
from .gates import gate_matrix
from .verify import check_d_range, verify_all

AMP_EPSILON = 1e-12
_NUMBERS_PER_WRITE = 3 * 4096  # per % format and write: a d = 64 matrix row, 4096 amplitudes


def cmd_verify(args) -> int:
    try:
        check_d_range(args.d_min, args.d_max)
    except ValueError as exc:
        raise ValueError(f"--d-min {args.d_min} --d-max {args.d_max}: {exc}") from None
    if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    reports = verify_all(args.d_min, args.d_max)
    if args.tolerance is not None:
        reports = [dataclasses.replace(r, tolerance=args.tolerance) for r in reports]
    failures = sum(not r.passed for r in reports)
    for r in reports:
        if args.json:
            print(json.dumps({
                "identity": r.identity_name,
                "d": r.d,
                "max_dev": float(r.max_dev),
                "tolerance": float(r.tolerance),
                "passed": bool(r.passed),
            }))
        else:
            print(f"{r.identity_name:<16} d={r.d:<3} max_dev={r.max_dev:.3e} "
                  f"tol={r.tolerance:.1e} {'PASS' if r.passed else 'FAIL'}")
    summary = f"{len(reports) - failures}/{len(reports)} identities passed"
    print(json.dumps({"summary": summary, "failures": failures}) if args.json else summary)
    return 0 if failures == 0 else 1


def cmd_matrix(args) -> int:
    kind = MNEMONICS.get(args.gate)
    if kind is None:
        raise ValueError(f"unknown gate mnemonic {args.gate!r}")
    check_d_range(args.d, args.d)
    _write_matrix(gate_matrix(kind, args.d), args.format)
    return 0


def _write(head: str, row: str, sep: str, tail: str, batches) -> None:
    """Write ``head``, ``row % numbers`` for each row joined by ``sep``, then ``tail``.

    ``batches(step)`` yields the cols of the rows, ``step`` rows or fewer at a time; a row's
    numbers are its entries of them in turn, re then im if complex, made Python objects
    ``_NUMBERS_PER_WRITE`` at a time at most.
    """
    sys.stdout.write(head)
    first = True
    for cols in batches(max(1, _NUMBERS_PER_WRITE // row.count("%"))):  # one number per %
        parts = [p for c in cols for p in ((c.real, c.imag) if np.iscomplexobj(c) else (c,))]
        flat = [None] * (len(parts) * parts[0].size)
        for k, part in enumerate(parts):
            flat[k::len(parts)] = part.reshape(-1).tolist()  # a strided 1-D col stays a view
        sys.stdout.write(sep * (not first) + sep.join([row] * len(parts[0])) % tuple(flat))
        first = False
    sys.stdout.write(tail)


def _write_matrix(g: GateMatrix, fmt: str) -> None:
    """Rows of (re, im) pairs: ``re,im`` joined by ``;`` per line, or a JSON list of lists."""
    form = (("[", "[" + ", ".join(["[%r, %r]"] * g.dim) + "]", ", ", "]\n") if fmt == "json"
            else ("", ";".join(["%.17g,%.17g"] * g.dim) + "\n", "", ""))
    _write(*form, lambda step: ((_dense_rows(g, slice(lo, lo + step)),)
                                for lo in range(0, g.dim, step)))


def _read_lines(lines) -> np.ndarray:
    """(re, im) float pairs, flat, read one line at a time."""
    values: list[float] = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"expected 're im' per line, got {raw!r}")
        values += float(parts[0]), float(parts[1])
    return np.array(values, dtype=np.float64)


def _load_state(path: str, d: int, n: int) -> StateVector:
    """The state in a file of (re, im) pairs, one a line.  Where numpy's C parser raises, warns
    or reads other than two columns, the line reader decides: ``1_0``, commas, the errors."""
    with open(path, encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data"
                pairs = np.loadtxt(fh, comments="#", ndmin=2)
            if pairs.shape[1] != 2:
                raise ValueError("not two columns")
        except (ValueError, Warning):
            fh.seek(0)
            pairs = _read_lines(fh)
    # (re, im) float pairs viewed as complex keep the sign of a zero part
    return StateVector(d, n, pairs.reshape(-1).view(np.complex128))


def _read_circuit(path: str) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def cmd_simulate(args) -> int:
    circ = _read_circuit(args.circuit)
    if (args.input is None) == (args.state is None):
        raise ValueError("exactly one of --input / --state is required")
    _check_budget(circ.d, circ.n)  # before the state allocates d^n amplitudes
    circ.gates  # built first, so a gate over its budget is the usage error reported
    if args.input is not None:
        digits = tuple(int(t) for t in args.input.split(","))
        if len(digits) != circ.n:
            raise ValueError(f"expected {circ.n} digits, got {len(digits)}")
        _check_digits(digits, circ.d)
        if all(g.perm is not None for g in circ.gates):  # tables move a label to a label
            label = _follow(circ, np.array(digits)[:, None])[:, 0].tolist()
            print(json.dumps({"label": label}) if args.json else ",".join(map(str, label)))
            return 0
    if any(g.matrix is not None for g in circ.gates):
        # OpenBLAS maps its 32 MiB buffer at its first product, and ends the process when it
        # cannot: mapped before the register, a register that does not fit is a MemoryError
        np.ones((2, 2), complex) @ np.ones((2, 8), complex)
    state = basis_state(digits, circ.d) if args.input is not None else _load_state(
        args.state, circ.d, circ.n)
    state.amps.setflags(write=True)  # made here, held by nothing else: run it, not a copy
    with np.errstate(over="ignore", invalid="ignore"):  # StateVector names a non-finite result
        out = StateVector(circ.d, circ.n, _run(circ, state.amps).ravel()).amps

    def batches(step):  # the amplitudes over the cut, a slab at a time: no array of size d^n
        for lo in range(0, out.size, _SLAB):
            idx = lo + np.flatnonzero(np.abs(out[lo:lo + _SLAB]) >= AMP_EPSILON)
            for i in range(0, idx.size, step):
                yield idx[i:i + step], out[idx[i:i + step]]
    # %r is the float repr that json.dumps writes
    form = (('{"amplitudes": [', '{"index": %d, "re": %r, "im": %r}', ", ", "]}\n") if args.json
            else ("", "%d %.17g %.17g\n", "", ""))
    _write(*form, batches)
    return 0


def cmd_parse(args) -> int:
    sys.stdout.write(render(_read_circuit(args.circuit)))
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
    try:
        code = args.func(args)
        sys.stdout.flush()  # a gone reader fails here, not at interpreter exit
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except (ValueError, OSError, MemoryError) as exc:  # UnicodeDecodeError, DimensionError too
        if isinstance(exc, BrokenPipeError):  # the flush at exit writes the rest to nowhere
            with open(os.devnull, "w") as null, contextlib.suppress(OSError):
                os.dup2(null.fileno(), sys.stdout.fileno())  # a captured stdout has no fileno
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
