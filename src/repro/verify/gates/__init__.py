"""The gate table: every CI gate, its ordered checks, and its artifacts.

``repro gate NAME...`` (``python -m repro gate``) runs rows of
:data:`GATES` through :func:`~repro.verify.gates.runner.run_gates`; the
checks live next to their scenario constants in the per-gate modules,
and nothing else in the repository restates a scenario or a verdict.
"""

from . import chaos, fuzz, placement, smoke
from .runner import DEFAULT_BASELINE, Gate, GateContext, run_gates

__all__ = ["DEFAULT_BASELINE", "GATES", "Gate", "GateContext", "run_gates"]

GATES = {
    gate.name: gate
    for gate in (
        Gate(
            "bench-smoke",
            "deterministic bench subset within the bands of BENCH_baseline.json",
            smoke.CHECKS,
            report="BENCH_pr.json",
            ratchets=smoke.RAW_RATCHETS,
        ),
        Gate(
            "chaos",
            "byte-exact recovery under every seeded fault plan",
            chaos.CHECKS,
            trace="chaos_trace.jsonl",
        ),
        Gate(
            "placement",
            "auto placement never loses; relay fan-out is byte-exact",
            placement.CHECKS,
            trace="placement_breakdown.jsonl",
        ),
        Gate(
            "fuzz",
            "contracts hold on every decode surface",
            fuzz.CHECKS,
        ),
    )
}
