"""Ablation — sensitivity of the decision thresholds (0.83 / 3.48 / 48.78 %).

The paper: "these numbers can be tuned easily ... usually, the numbers
being used are very close to the constants detailed here."  The sweep
perturbs each constant and reports the end-to-end impact.
"""

from repro.experiments import ReplayConfig, sweep_thresholds

_CONFIG = ReplayConfig(
    block_count=24, production_interval=0.0, trace_offset=20.0, pipelined=True
)


def test_ablate_thresholds(benchmark):
    points = benchmark.pedantic(
        sweep_thresholds,
        kwargs={"config": _CONFIG},
        rounds=1,
        iterations=1,
    )
    print("\nablation: decision thresholds (3 MB commercial bulk)")
    print(f"{'variant':>28s} {'total s':>9s} {'ratio':>7s}  methods")
    for point in points:
        print(
            f"{point.value:>28s} {point.total_seconds:9.2f} "
            f"{point.overall_ratio:7.2f}  {point.method_counts}"
        )
    totals = {p.value: p.total_seconds for p in points}
    paper = totals["paper(0.83/3.48/0.4878)"]
    # The paper's constants are competitive with every perturbation tried.
    assert paper < min(totals.values()) * 1.4
