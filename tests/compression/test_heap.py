"""The resident codec heap: a 128 KB block costs no fresh pages once warm."""

import resource

import pytest

from repro.compression import get_codec, heap
from repro.data import CommercialDataGenerator
from tests.strategies import serial_pool

CODECS = ("huffman", "lempel-ziv", "burrows-wheeler")

#: Minor faults one warm compress + decompress of a 128 KB block may add.
#: With the thresholds at glibc's defaults the three codecs take about
#: 550-2 600 each; on the resident heap a few dozen at most.
FAULT_BUDGET = 200


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(heap._mallopt() is None, reason="the C library has no mallopt")
def test_warm_block_adds_no_page_faults(shared_pool):
    # Every chunk in this process, so every page the codecs touch is counted.
    shared_pool(serial_pool())
    block = next(iter(CommercialDataGenerator(seed=2004).stream(128 * 1024, 1)))
    codecs = [get_codec(name) for name in CODECS]
    for codec in codecs:  # warm-up: tables, caches and the heap itself
        assert codec.decompress(codec.compress(block)) == block
    faults = {}
    for codec in codecs:
        before = _minor_faults()
        restored = codec.decompress(codec.compress(block))
        faults[codec.name] = _minor_faults() - before
        assert restored == block
    assert all(count < FAULT_BUDGET for count in faults.values()), faults

