"""Multi-core pool throughput — serial vs pipelined block execution.

Not a paper figure: this benchmarks the worker-pool layer added on top of
the reproduction.  The modeled schedule (calibrated costs on the SUN_FIRE
CPU, nominal 100 MBit wire) quantifies how much of the paper's "slightly
more than 60%" compression share a 4-worker compress/send pipeline hides;
the real run on the shared codec pool proves the pool changes wall clock
only, never wire bytes.  Scenario and verdicts are the smoke gate's
``pool_throughput`` check; what this module adds is its wall time.
"""

from repro.verify.gates.smoke import pool_throughput


def test_pool_gate_wall_time(run_check, benchmark):
    benchmark.pedantic(run_check, args=(pool_throughput,), rounds=1, iterations=1)
