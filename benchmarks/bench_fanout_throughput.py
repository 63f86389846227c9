"""Fan-out throughput — sharded fabric vs per-subscriber compression.

Not a paper figure: this benchmarks the event-fabric layer added on top
of the reproduction.  A Zipf-skewed population of 1024 subscribers over
64 channels shares 8 distinct ``(method, params)`` compression choices;
the fabric compresses each payload once per choice through the shared
block cache while the baseline models the pre-fabric middleware, where
every subscriber's derived channel runs the codec itself.  The scenario,
its verdicts (byte identity, cache amortization, >=3x speedup, shard
balance) and its metrics are the smoke gate's ``fanout_throughput``
check; this module runs it so ``pytest benchmarks/`` reports it too.
"""

from repro.verify.gates.smoke import fanout_throughput


def test_fanout_gate(run_check):
    run_check(fanout_throughput)
