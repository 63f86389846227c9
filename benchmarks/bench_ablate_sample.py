"""Ablation — sampling probe size around the paper's 4 KB.

Bigger probes predict block compressibility better but steal more CPU
from the send path; smaller probes are noisy around the 48.78 % gate.
"""

from repro.experiments import ReplayConfig, sweep_sample_size

_CONFIG = ReplayConfig(
    block_count=24, production_interval=0.0, trace_offset=20.0, pipelined=True
)


def test_ablate_sample_size(benchmark):
    points = benchmark.pedantic(
        sweep_sample_size,
        kwargs={
            "sizes": (1024, 4096, 16384),
            "config": _CONFIG,
        },
        rounds=1,
        iterations=1,
    )
    print("\nablation: sampling probe size (3 MB commercial bulk)")
    print(f"{'sample size':>12s} {'total s':>9s} {'ratio':>7s}  methods")
    for point in points:
        print(
            f"{int(point.value):>12d} {point.total_seconds:9.2f} "
            f"{point.overall_ratio:7.2f}  {point.method_counts}"
        )
    totals = {int(p.value): p.total_seconds for p in points}
    assert totals[4096] < min(totals.values()) * 1.4
