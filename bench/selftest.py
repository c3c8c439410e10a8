"""Self-test of the benchmark's output checks.

Runs one small pass of a verify and a simulate workload on the real program
and requires every check to pass.  Then it corrupts one item's output at a
time, through the same pass and check code the benchmark uses, and requires
each corruption to raise fail_ratio:

* a simulate amplitude off by 1e-6;
* a wrong basis label;
* a non-zero exit code;
* a verify item with one identity missing;
* an exact identity with a deviation of 1e-17.

    python3 bench/selftest.py

Exits 0 when every case behaves as described, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

import worker
import workloads

SEED = 7


def _bump_first_amplitude(out):
    code, text = out
    lines = text.splitlines()
    idx, re_, im = lines[0].split()
    lines[0] = f"{idx} {float(re_) + 1e-6!r} {im}"
    return code, "\n".join(lines) + "\n"


def _wrong_label(case, out):
    code, text = out
    digits = [int(t) for t in text.strip().split(",")]
    digits[0] = (digits[0] + 1) % case.d
    return code, ",".join(map(str, digits)) + "\n"


def _drop_identity(reports, name):
    return [r for r in reports if r.identity_name != name]


def _inexact(reports, name):
    return [dataclasses.replace(r, max_dev=1e-17) if r.identity_name == name else r
            for r in reports]


def fail_ratio(wl, corrupt=None) -> tuple[float, list[str]]:
    """fail_ratio of one pass, with ``corrupt(item, out)`` applied to outputs."""
    run = wl.run
    if corrupt is not None:
        wl.run = lambda item: corrupt(item, run(item))
    try:
        latencies, reasons = [], []
        _, failed = worker.run_pass(wl, latencies, reasons)
    finally:
        wl.run = run
    return failed / len(latencies), reasons


def main() -> int:
    sys.path.insert(0, str(worker.SRC))
    import quditswap
    from quditswap import cli

    workdir = worker.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        cases = workloads.make_sim_cases(SEED, workdir, registers=((3, 3), (2, 4)))
        sim = workloads.SimulateWorkload(cli, cases, ())
        ver = workloads.VerifyWorkload(quditswap, (2, 3, 5), SEED)
        mixed = next(c for c in cases if c.expected_amps is not None)
        perm = next(c for c in cases if c.expected_label is not None)

        def only(pick, fn):
            return lambda item, out: fn(item, out) if pick(item) else out

        scenarios = [
            ("clean simulate", sim, None, False),
            ("clean verify", ver, None, False),
            ("corrupted amplitude", sim, only(lambda c: c is mixed, lambda c, o: _bump_first_amplitude(o)), True),
            ("wrong label", sim, only(lambda c: c is perm, _wrong_label), True),
            ("non-zero exit code", sim, only(lambda c: c is mixed, lambda c, o: (1, o[1])), True),
            ("missing identity", ver, only(lambda d: d == 3, lambda d, o: _drop_identity(o, "delta_sum")), True),
            ("inexact swap", ver, only(lambda d: d == 2, lambda d, o: _inexact(o, "swap")), True),
        ]
        ok = True
        for title, wl, corrupt, should_fail in scenarios:
            ratio, reasons = fail_ratio(wl, corrupt)
            good = (ratio > 0) == should_fail
            ok &= good
            detail = f" ({reasons[0]})" if reasons else ""
            print(f"{'ok  ' if good else 'FAIL'} {title}: fail_ratio={ratio:.3f}{detail}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # a benchmark worker still uses it
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
