"""The two memory probes of the tests.

* ``peak_bytes(fn)``: the tracemalloc peak of one call. It sees every
  Python object and numpy array the call makes, byte for byte, so it serves
  Python-object peaks and the checks that refuse a size before allocating.
  It traces each allocation, so a call that formats many numbers runs
  several times slower under it.
* ``rss_over_import(argv)``: the peak RSS of a fresh ``python *argv``, less
  that of a fresh ``python -c "import quditswap.cli"``. It runs at full
  speed, but RSS moves in steps of about 2 MB, so it serves claims about
  arrays of tens of MB.
* ``pinned_heap_faults(script)``: the integers a fresh child prints after
  running ``script`` on a pinned heap, with ``faults(fn)`` (the minor page
  faults of one call) defined for it.  glibc moves its mmap threshold and
  trims its heap by what the process did before, so an unpinned count
  follows the environment block; pinned, an array of 128 KiB or more is
  mapped anew (and faulted in) on every allocation, and a freed heap is
  never given back, so the count follows the code alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import quditswap


def peak_bytes(fn):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Linux keeps a process's peak RSS across exec, and a child spawned by a
# large process starts with that process's peak. So the measured child is
# spawned by a bare interpreter (no site, under 10 MB), which waits for it
# and prints its exit code and rusage.
_SPAWN = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_env() -> dict:
    """The environment of a measured child: BLAS on one thread, the package the tests import."""
    src = str(Path(quditswap.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)


def _peak_rss(argv) -> int:
    """Peak RSS in bytes of a fresh ``python *argv``, stdout to devnull; its exit code must be 0."""
    out = subprocess.run([sys.executable, "-I", "-S", "-c", _SPAWN, sys.executable, *argv],
                         env=child_env(), stdout=subprocess.PIPE, check=True, text=True).stdout
    code, max_rss_kib = map(int, out.split())
    assert code == 0, (argv, code)
    return max_rss_kib * 1024


@functools.cache
def _import_rss() -> int:
    return _peak_rss(["-c", "import quditswap.cli"])


def rss_over_import(argv) -> int:
    """Peak RSS in bytes of a fresh ``python *argv`` over an import-only child."""
    return _peak_rss(argv) - _import_rss()


# glibc's M_MMAP_THRESHOLD (-3) at 128 KiB, its default, made static, and M_TRIM_THRESHOLD
# (-1) at 1 GiB, before numpy's import; mallopt returns 1 when it takes a setting
_PIN = """
import ctypes, resource
libc = ctypes.CDLL(None)
assert libc.mallopt(-3, 128 * 1024) == 1 and libc.mallopt(-1, 2**30) == 1

def faults(fn):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
"""


def pinned_heap_faults(script: str) -> list[int]:
    """The integers a fresh ``python -c script`` prints, run on a pinned glibc heap."""
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt (not glibc), so the heap cannot be pinned")
    out = subprocess.run([sys.executable, "-c", _PIN + script], env=child_env(), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return [int(x) for x in out.split()]
