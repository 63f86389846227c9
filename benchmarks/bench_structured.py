"""Structure-aware codecs — ratio and throughput on their own workloads.

Not a paper figure: the structured family extends the paper's generic
method table with format-aware coding.  The ratio verdicts (template
beats the generic field by >=1.3x on logs, columnar beats zlib level-6 on
telemetry, neither falls back) are the smoke gate's ``structured_ratio``
check, run here as-is; the benchmarks time one 64 KB seeded block of
each workload through compress and decompress.
"""

import pytest

from repro.compression import get_codec
from repro.verify.gates.smoke import structured_blocks, structured_ratio

_BLOCKS = structured_blocks()


def test_structured_gate(run_check):
    run_check(structured_ratio)


@pytest.mark.parametrize("name", ["template", "columnar"])
def test_structured_compress(benchmark, name):
    codec = get_codec(name)
    payload = benchmark(codec.compress, _BLOCKS[name])
    assert len(payload) < len(_BLOCKS[name])


@pytest.mark.parametrize("name", ["template", "columnar"])
def test_structured_decompress(benchmark, name):
    codec = get_codec(name)
    data = _BLOCKS[name]
    restored = benchmark(codec.decompress, codec.compress(data))
    assert restored == data
