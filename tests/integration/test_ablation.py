"""The ablation sweeps on a 1 MB commercial bulk transfer, pinned exactly.

Each point is a modeled-cost, seeded replay, so its seconds, ratio and
method counts are the same on every host; a changed number is a changed
scenario.
"""

from dataclasses import replace

import pytest

from repro.experiments import (
    HEADLINE_CONFIG,
    sweep_block_size,
    sweep_sample_size,
    sweep_thresholds,
)

#: 8 blocks of 128 KB in bulk through the busy part of the trace, pipelined.
CONFIG = replace(HEADLINE_CONFIG, block_count=8)

#: (parameter, value) -> (total seconds, overall ratio, method counts).
PINNED = {
    ("block_size", "65536"): (
        1.1509435933227201, 0.348876953125, {"huffman": 1, "burrows-wheeler": 15}
    ),
    ("block_size", "131072"): (
        1.2383736625390527, 0.36662960052490234, {"huffman": 1, "burrows-wheeler": 7}
    ),
    ("sample_size", "1024"): (1.6975736584599537, 0.6299762725830078, {"huffman": 8}),
    ("sample_size", "16384"): (
        1.2383736625390527, 0.36662960052490234, {"huffman": 1, "burrows-wheeler": 7}
    ),
    ("thresholds", "paper(0.83/3.48/0.4878)"): (
        1.2383736625390527, 0.36662960052490234, {"huffman": 1, "burrows-wheeler": 7}
    ),
    ("thresholds", "eager(0.4/2.0/0.4878)"): (
        1.2383736625390527, 0.36662960052490234, {"huffman": 1, "burrows-wheeler": 7}
    ),
    ("thresholds", "lazy(1.6/6.0/0.4878)"): (
        1.160600329268138, 0.3881044387817383, {"huffman": 1, "lempel-ziv": 7}
    ),
    ("thresholds", "tight-gate(0.83/3.48/0.30)"): (
        1.6975736584599537, 0.6299762725830078, {"huffman": 8}
    ),
    ("thresholds", "loose-gate(0.83/3.48/0.70)"): (
        1.243928193194249, 0.32921409606933594, {"burrows-wheeler": 8}
    ),
}


def _pins(points):
    return {
        (p.parameter, p.value): (p.total_seconds, p.overall_ratio, p.method_counts)
        for p in points
    }


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: sweep_block_size(CONFIG, sizes=(64 * 1024, 128 * 1024)),
        lambda: sweep_sample_size(CONFIG, sizes=(1024, 16384)),
        lambda: sweep_thresholds(CONFIG),
    ],
    ids=["block_size", "sample_size", "thresholds"],
)
def test_sweep_points_pinned(sweep):
    got = _pins(sweep())
    assert got and got == {key: PINNED[key] for key in got}


def test_block_size_sweep_keeps_the_byte_budget():
    """Each block-size point streams block_size x block_count bytes."""
    (point,) = sweep_block_size(CONFIG, sizes=(32 * 1024,))
    assert sum(point.method_counts.values()) == 32
