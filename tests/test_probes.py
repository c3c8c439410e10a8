"""Each memory probe reads a known allocation, so that a broken one cannot pass every bound."""

import numpy as np

from probes import peak_bytes, pinned_heap_faults, rss_over_import


def test_peak_bytes_reads_an_array_its_call_allocates():
    a, peak = peak_bytes(lambda: np.ones(2**20))
    assert peak >= a.nbytes


def test_rss_over_import_reads_a_64_mib_array_a_child_touches():
    # np.ones writes every page of its 2^23 floats
    argv = ["-c", "import numpy as np, quditswap.cli; a = np.ones(2**23)"]
    assert rss_over_import(argv) >= 60 * 2**20


def test_pinned_heap_faults_in_each_1_mib_array_anew():
    # pinned, each array over the 128 KiB threshold is mapped, faulted in (256 pages) and
    # unmapped; glibc's own threshold rises at the first free, and the rest reuse the heap
    script = ("import numpy as np\n"
              "print(faults(lambda: [np.ones(2**17).sum() for _ in range(10)]))\n")
    (count,) = pinned_heap_faults(script)
    assert count >= 2000, count
