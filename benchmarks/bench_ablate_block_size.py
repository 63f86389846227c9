"""Ablation — pipeline block size around the paper's 128 KB.

The paper fixes 128 KB "according to the efficiency of compression
methods based on [32, 33]".  The sweep quantifies the tradeoff: small
blocks decide more often but compress worse and pay more per-block
overhead; large blocks adapt sluggishly.
"""

from repro.experiments import ReplayConfig, sweep_block_size

_CONFIG = ReplayConfig(
    block_count=24, production_interval=0.0, trace_offset=20.0, pipelined=True
)
_SIZES = (32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024)


def test_ablate_block_size(benchmark):
    points = benchmark.pedantic(
        sweep_block_size,
        kwargs={"sizes": _SIZES, "config": _CONFIG},
        rounds=1,
        iterations=1,
    )
    print("\nablation: block size (3 MB commercial bulk, loaded 100 Mbit)")
    print(f"{'block size':>12s} {'total s':>9s} {'ratio':>7s}  methods")
    for point in points:
        print(
            f"{int(point.value):>12d} {point.total_seconds:9.2f} "
            f"{point.overall_ratio:7.2f}  {point.method_counts}"
        )
    totals = {int(p.value): p.total_seconds for p in points}
    # the paper's 128 KB sits within 40% of the best point in the sweep
    assert totals[128 * 1024] < min(totals.values()) * 1.4
