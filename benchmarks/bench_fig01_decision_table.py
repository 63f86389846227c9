"""Figure 1 — the qualitative decision table and the selector's speed.

Regenerates the six-characteristic method table verbatim and benchmarks
one invocation of the §2.5 selection algorithm (it runs once per 128 KB
block in production, so it must be microseconds-cheap).
"""

from repro.core.decision import DecisionInputs, DecisionThresholds, select_method
from repro.experiments import figure1_rows
from repro.experiments.report import figure1_section


def test_fig01_select_method_speed(benchmark, record_bench):
    inputs = DecisionInputs(
        block_size=128 * 1024,
        sending_time=0.5,
        sampled_ratio=0.35,
        speeds={"lempel-ziv": 1.4e6},
    )
    thresholds = DecisionThresholds()
    decision = benchmark(select_method, inputs, thresholds)
    assert decision.method == "burrows-wheeler"

    record_bench("fig01.table_rows", len(figure1_rows()), unit="rows")
    print()
    print("\n".join(figure1_section()))
