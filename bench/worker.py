"""Run one workload in this process: set up, then the timed phase.

Started by ``run.py``, one fresh process per set-up sample, so that peak
memory and set-up time belong to a single workload.  Prints one JSON object
as its only line of standard output.

Set-up covers the interpreter start, the import, input generation, the
oracle's precompute and a small warm-up.  The timed phase runs a fixed
number of passes over the workload's items, derived from ``--seconds`` and
the pass time measured on the seed code, so the work is the same on every
commit.  Outputs are checked after each pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seconds per pass on the seed code: 2-core x86-64, Python 3.11, numpy 2.4,
# one BLAS thread.
NOMINAL_PASS_S = {
    "verify_sweep": 1.2,
    "verify_large_d": 12.9,
    "simulate_register": 2.9,
}
MIN_PASSES = 2
MAX_REASONS = 5


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than 20 samples no such percentile is meaningful and the
    maximum is reported as percentile 100.
    """
    xs = sorted(samples)
    if len(xs) < 20:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(wl, latencies: list[float], reasons: list[str]) -> tuple[float, int]:
    """One pass over the items; returns (wall seconds, failed items).

    Item latencies are appended to ``latencies`` in item order.
    """
    outputs = []
    start = time.perf_counter()
    for item in wl.items:
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception as exc:  # an item that raises is a failed item
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append((item, out))
    wall = time.perf_counter() - start
    failed = 0
    for item, out in outputs:
        if isinstance(out, Exception):
            reason = f"{wl.label(item)}: raised {out!r}"
        else:
            reason = wl.check(item, out)
        if reason:
            failed += 1
            if len(reasons) < MAX_REASONS:
                reasons.append(reason)
    return wall, failed


def timed_phase(wl, workload: str, seconds: float, traced: bool) -> dict:
    """Run the passes; return attempted and failed counts, metrics and context.

    The metrics are the end-to-end ones this process can measure, or with
    ``traced`` the per-layer ones.
    """
    passes = passes_for(workload, seconds)
    latencies: list[float] = []
    reasons: list[str] = []
    walls = []
    failed = 0
    # A traced run times half the passes untraced, for the overhead, then
    # traces exactly one pass, so its counts repeat exactly.
    for _ in range(max(1, passes // 2) if traced else passes):
        wall, f = run_pass(wl, latencies, reasons)
        walls.append(wall)
        failed += f
    context = {"passes": len(walls), "pass_walls_s": walls}
    if traced:
        modules = {}
        for short in ("circuit", "verify", "cli"):
            try:
                modules[short] = importlib.import_module(f"quditswap.{short}")
            except ImportError:
                modules[short] = None
        rec = spans.Recorder()
        item_run = wl.run

        def run_in_span(item):
            with rec.span("item"):
                return item_run(item)

        wl.run = run_in_span
        try:
            with spans.installed(rec, modules) as missing:
                wall, f = run_pass(wl, latencies, reasons)
        finally:
            wl.run = item_run
        failed += f
        metrics = spans.aggregate(rec.spans)
        metrics["trace.overhead_s"] = wall - statistics.median(walls)
        context.update(traced_passes=1, hooks_missing=missing)
    else:
        labels = [wl.label(item) for item in wl.items]
        value, pct = tail(latencies)
        metrics = {
            "wall_s": sum(walls),
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "item_tail_ms": 1e3 * value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        context.update(
            tail_percentile=pct,
            tail_samples=len(latencies),
            item_medians_ms={
                label: 1e3 * statistics.median(latencies[i::len(labels)])
                for i, label in enumerate(labels)
            },
        )
    context.update(failures=reasons, env=environment())
    return {"attempted": len(latencies), "failed": failed, "metrics": metrics, "context": context}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "quditswap" / "__init__.py").is_file():
        print(f"error: no quditswap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quditswap

    if Path(quditswap.__file__).resolve().parent != (SRC / "quditswap").resolve():
        print(f"error: imported quditswap from {quditswap.__file__}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        for item in wl.warm_items:
            try:
                wl.run(item)
            except Exception:  # a failing program is reported by the timed items
                pass
        ready_at = time.monotonic()
        if args.setup_only:
            result = {}
        else:
            result = timed_phase(wl, args.workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker still uses it
            pass
    result["ready_at"] = ready_at
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
