"""Each memory probe reads a known allocation, so that a broken one cannot pass every bound."""

import numpy as np

from probes import peak_bytes, rss_over_import


def test_peak_bytes_reads_an_array_its_call_allocates():
    a, peak = peak_bytes(lambda: np.ones(2**20))
    assert peak >= a.nbytes


def test_rss_over_import_reads_a_64_mib_array_a_child_touches():
    # np.ones writes every page of its 2^23 floats
    argv = ["-c", "import numpy as np, quditswap.cli; a = np.ones(2**23)"]
    assert rss_over_import(argv) >= 60 * 2**20
