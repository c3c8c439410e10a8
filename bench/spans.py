"""Per-layer timing from outside the program.

Wrappers are installed in the module namespace where each caller looks a
function up (``verify.circuit_unitary``, ``circuit.embed``, ...), so the
program's own code is unchanged.  ``circuit._BUILDERS`` holds its own
references to the gate constructors, so gate construction is timed at
``circuit.gate_matrix`` and at the constructors ``verify`` calls directly.

Each call records a span ``[name, start, end, parent, bytes]`` in memory; the
spans are aggregated once the traced pass is over.  A layer's self time is
its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

import numpy as np


class Recorder:
    """In-memory span list with a stack of the spans still open."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def held_bytes(obj) -> int:
    """Computed size of what an object holds: array bytes, 8 per tuple entry.

    Reads the instance fields only, so a lazily built field is not forced.
    """
    fields = dict(getattr(obj, "__dict__", {}))
    for name in getattr(type(obj), "__slots__", ()):
        fields[name] = getattr(obj, name, None)
    total = 0
    for value in fields.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (tuple, list)):
            total += 8 * len(value)
    return total


def _result_bytes(args, out) -> int:
    return held_bytes(out)


def _operand_bytes(args, out) -> int:
    return sum(held_bytes(a) for a in args[:2])


def _text_bytes(args, out) -> int:
    return len(args[0].encode("utf-8")) if args and isinstance(args[0], str) else 0


def _embed_name(out) -> str:
    return "circuit.embed.perm" if getattr(out, "perm", None) is not None else "circuit.embed.dense"


# (module, attribute, span name or callable naming it from the result, bytes)
HOOKS = (
    ("circuit", "gate_matrix", "gates.build", _result_bytes),
    ("verify", "cx_tilde", "gates.build", _result_bytes),
    ("verify", "swap_ref", "gates.build", _result_bytes),
    ("verify", "identity_matrix", "gates.build", _result_bytes),
    ("circuit", "embed", _embed_name, _result_bytes),
    ("verify", "circuit_unitary", "circuit.unitary", None),
    ("cli", "circuit_unitary", "circuit.unitary", None),
    ("verify", "simulate", "circuit.simulate", None),
    ("cli", "simulate", "circuit.simulate", None),
    ("circuit", "apply", "core.apply", None),
    ("verify", "max_entry_dist", "core.compare", _operand_bytes),
    ("verify", "matmul", "core.matmul", None),
    ("verify", "verify_swap", "verify.swap", None),
    ("verify", "verify_decomposition", "verify.decomposition", None),
    ("verify", "verify_self_inverse", "verify.self_inverse", None),
    ("verify", "verify_delta_sum", "verify.delta_sum", None),
    ("verify", "verify_asymmetric_swap", "verify.asymmetric_swap", None),
    ("verify", "verify_partial_swap", "verify.partial_swap", None),
    ("verify", "random_state_check", "verify.random_states", None),
    ("cli", "parse", "dsl.parse", _text_bytes),
    ("cli", "main", "cli.main", None),
)

# Span name -> quantities reported.  "circuit.embed" is the sum of its perm
# and dense spans.
LAYERS = {
    "gates.build": ("calls", "self_s", "bytes"),
    "circuit.embed.perm": ("calls", "self_s"),
    "circuit.embed.dense": ("calls", "self_s"),
    "circuit.embed": ("bytes",),
    "circuit.unitary": ("calls", "self_s"),
    "circuit.simulate": ("calls", "self_s"),
    "core.apply": ("calls", "self_s"),
    "core.compare": ("calls", "self_s", "bytes"),
    "core.matmul": ("calls", "self_s"),
    **{f"verify.{name}": ("self_s",) for name in (
        "swap", "decomposition", "self_inverse", "delta_sum",
        "asymmetric_swap", "partial_swap", "random_states",
    )},
    "dsl.parse": ("calls", "self_s", "bytes"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "bytes": "B"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    return [(f"{layer}.{q}", UNITS[q]) for layer, qs in LAYERS.items() for q in qs] + [
        ("trace.overhead_s", "s")
    ]


def _wrap(rec: Recorder, fn, name, nbytes):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name if isinstance(name, str) else "?")
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        span = rec.spans[idx]
        if not isinstance(name, str):
            span[0] = name(out)
        if nbytes is not None:
            span[4] = nbytes(args, out)
        return out

    return wrapper


@contextlib.contextmanager
def installed(rec: Recorder, modules: dict):
    """Install every hook whose target exists; restore the originals on exit.

    Yields the list of hooks that were skipped because the program no longer
    has that attribute.
    """
    saved = []
    missing = []
    try:
        for mod, attr, name, nbytes in HOOKS:
            module = modules[mod]
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{mod}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(rec, fn, name, nbytes))
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def aggregate(spans) -> dict[str, float]:
    """Per-layer calls, self time and bytes from a span list."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, _, nbytes) in enumerate(spans):
        t = totals.setdefault(name, [0, 0.0, 0])
        t[0] += 1
        t[1] += (end - start) - child[i]
        t[2] += nbytes
    parts = [totals.get(f"circuit.embed.{kind}", (0, 0.0, 0)) for kind in ("perm", "dense")]
    totals["circuit.embed"] = [sum(col) for col in zip(*parts)]
    out: dict[str, float] = {}
    for layer, quantities in LAYERS.items():
        calls, self_s, nbytes = totals.get(layer, (0, 0.0, 0))
        values = {"calls": calls, "self_s": self_s, "bytes": nbytes}
        for q in quantities:
            out[f"{layer}.{q}"] = values[q]
    return out
