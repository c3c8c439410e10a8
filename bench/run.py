"""quditswap benchmark: run a workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save FILE]
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1 [--save FILE]
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl
    python3 bench/selftest.py

Workloads: ``verify_sweep``, ``verify_large_d``, ``simulate_register`` (see
``workloads.py``); ``all`` runs them one after another.  Each workload runs
in fresh processes with BLAS pinned to one thread.  Set-up is repeated in
``SETUPS`` processes and its median is reported; the middle one goes on to
the timed phase.

With ``--trace 0`` the metrics are end to end:

* ``wall_s``: wall time of the timed phase, a fixed number of passes over
  the workload's items (see ``worker.py``);
* ``item_p50_ms``: median item latency;
* ``item_tail_ms``: latency at the highest percentile with at least ten
  items beyond it (the maximum when a run has fewer than 20 items);
* ``peak_rss_mb``: peak resident memory of the measured process;
* ``pass_ratio``: items whose output passed the checks, over items attempted
  (``1 - fail_ratio``, kept nonzero so its spread is defined);
* ``setup_s``: process start to the first timed item, median of ``SETUPS``.

With ``--trace 1`` they are per layer, from one traced pass (``spans.py``).
The line before the result line is a JSON object with the run's context:
environment, seed, pass and item counts, the tail percentile, fail_ratio and
the first failure reasons.  ``--save`` appends both to a JSON-lines file, and
``--compare`` prints the ratio NEW/BASE of the median of every metric, one
row per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 5
RUN_LIMIT_S = 170.0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
    ("setup_s", "s"),
)


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process; return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the run finished")
    env = {**os.environ, **BLAS_PIN}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; return (context, result) as printed."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    # Set-up samples are taken before and after the measured process, so
    # their median spans the run rather than one moment of machine load.
    setups = []
    for i in range(1 if trace else SETUPS):
        measured = i == (0 if trace else SETUPS // 2)
        spawned_at = time.monotonic()
        sample = _worker(base if measured else [*base, "--setup-only"], deadline)
        setups.append(sample["ready_at"] - spawned_at)
        if measured:
            out = sample

    values = out["metrics"]
    if trace:
        units = metric_names()
    else:
        units = END_TO_END
        values.update(pass_ratio=1 - out["failed"] / out["attempted"],
                      setup_s=statistics.median(setups))
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "items": out["attempted"],
        "fail_ratio": out["failed"] / out["attempted"],
        **out["context"],
    }
    if not trace:
        context["setup_samples_s"] = setups
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units},
    }
    return context, result


def _load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from a --save file."""
    by_workload: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            metrics = by_workload.setdefault(rec["context"]["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return by_workload


def compare(base_path: str, new_path: str) -> int:
    """Print NEW/BASE for the median of each metric, one row per workload."""
    base, new = _load(base_path), _load(new_path)
    e2e = [n for n, _ in END_TO_END]
    for title, names in (("end to end", e2e), ("per layer", [n for n, _ in metric_names()])):
        print(f"# {title}: ratio new/base of medians")
        for workload in WORKLOADS:
            if workload not in base or workload not in new:
                continue
            cells = []
            for name in names:
                b, n = base[workload].get(name), new[workload].get(name)
                if not b or not n:
                    continue
                mb, mn = statistics.median(b), statistics.median(n)
                if mb:
                    ratio = f"{mn / mb:.3f}"
                else:  # a layer the workload does not reach has no ratio
                    ratio = "-" if mn == 0 else "inf"
                cells.append(f"{name}={ratio}")
            if cells:
                print(f"{workload:<18} " + " ".join(cells))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="quditswap benchmark")
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="append context and result to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "quditswap" / "__init__.py").is_file():
        print(f"error: no quditswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            context, result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for reason in context["failures"]:
            print(f"check failed: {reason}", file=sys.stderr)
        print(json.dumps({"context": context}))
        print(json.dumps(result))
        if args.save:
            with open(args.save, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"context": context, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
