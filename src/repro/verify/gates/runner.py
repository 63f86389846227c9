"""The one gate runner: a gate is a name and an ordered list of checks.

The paper's claims are time-budget inequalities and byte-exactness
contracts, and CI holds them as *gates*.  A **check** is a plain
function of one :class:`GateContext`; the context offers exactly what a
gate needs — :meth:`~GateContext.record` a metric into the one
:class:`~repro.obs.benchfmt.BenchReport`, :meth:`~GateContext.fail` an
assertion, a :class:`~repro.obs.trace.TraceWriter` artifact, and
:meth:`~GateContext.twice` (run, re-run, fail on any difference).  The
runner alone owns everything around the checks: the baseline comparison
and one-sided ratchets, the ``$GITHUB_STEP_SUMMARY`` table, the artifact
paths, and the exit code (0 every assertion held, 1 some did not, 2 the
gate could not run — unknown name, missing baseline).

A failing check never hides the later ones: assertions accumulate and an
exception escaping a check becomes one more failure, so one run lists
everything that is broken.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, TypeVar

from ...obs.benchfmt import (
    BenchMetric,
    BenchReport,
    Comparison,
    compare_reports,
    load_report,
)
from ...obs.trace import TraceWriter

__all__ = ["DEFAULT_BASELINE", "Check", "Gate", "GateContext", "run_gates"]

DEFAULT_BASELINE = "BENCH_baseline.json"

T = TypeVar("T")
Emit = Callable[[str], None]


class GateContext:
    """What one gate run offers its checks; everything else is the runner's.

    Constructed bare (``GateContext()``) it is a throw-away: an in-memory
    trace, a silent ``emit``, artifacts in the working directory — how the
    pytest benchmarks and the tests run a single check.
    """

    def __init__(
        self,
        suite: str = "adhoc",
        emit: Optional[Emit] = None,
        tracer: Optional[TraceWriter] = None,
        artifacts: Path = Path("."),
        budget_seconds: Optional[float] = None,
    ) -> None:
        self.report = BenchReport(metadata={"suite": suite})
        self.failures: List[str] = []
        #: Extra lines for the step summary, below the verdict table.
        self.notes: List[str] = []
        self.emit: Emit = emit if emit is not None else (lambda line: None)
        self.tracer = tracer if tracer is not None else TraceWriter()
        self.artifacts = artifacts
        #: Wall cap for a time-boxed check (``None`` = uncapped); it may
        #: only truncate a deterministic schedule, never reorder it.
        self.budget_seconds = budget_seconds

    def record(self, name: str, value: float, **contract: object) -> BenchMetric:
        """Record one metric (``unit``/``kind``/``better``/``tolerance``)."""
        return self.report.record(name, value, **contract)

    def exact(self, name: str, value: float, unit: str = "") -> BenchMetric:
        """Record a metric the baseline must match exactly (checksums, counts)."""
        return self.record(name, value, unit=unit, better="near", tolerance=0.0)

    def fail(self, message: str) -> None:
        """One broken assertion; the gate keeps running and exits 1."""
        self.failures.append(message)

    def row(self, before: int, line: str, event: str, **fields: object) -> None:
        """Close one table row: print ``line`` and trace ``event``, both marked
        OK unless the row added failures since ``before = len(ctx.failures)``."""
        ok = len(self.failures) == before
        self.emit(f"{line}  {'OK' if ok else 'FAIL'}")
        self.tracer.event(event, **fields, ok=ok)

    def twice(self, fn: Callable[[], T], what: str) -> T:
        """Determinism: run ``fn`` twice, fail on any difference, return the first."""
        first, second = fn(), fn()
        if first != second:
            self.fail(f"{what}: outcome differs between identical runs")
        return first


Check = Callable[[GateContext], None]


@dataclass(frozen=True)
class Gate:
    """One row of the gate table."""

    name: str
    #: What a pass proves (printed on success).
    promise: str
    checks: Tuple[Check, ...]
    #: File name of the JSON-lines trace artifact, when the gate keeps one.
    trace: Optional[str] = None
    #: File name of the candidate-report artifact; naming one makes the
    #: runner gate the report against the committed baseline.
    report: Optional[str] = None
    #: ``(metric, "higher"|"lower")`` — may equal the baseline, never lose.
    ratchets: Tuple[Tuple[str, str], ...] = ()


def run_gates(
    names: Sequence[str],
    gates: Mapping[str, Gate],
    emit: Emit,
    baseline: Optional[str] = None,
    write_baseline: bool = False,
    artifacts: str = ".",
    budget_seconds: Optional[float] = None,
) -> int:
    """Run the named gates in order; the process exit status."""
    unknown = [name for name in names if name not in gates]
    if unknown or not names:
        emit(f"error: unknown gate {', '.join(unknown) or '(none named)'}")
        emit(f"known gates: {', '.join(gates)}")
        return 2
    return max(
        _run_gate(
            gates[name],
            emit,
            Path(baseline or DEFAULT_BASELINE),
            write_baseline,
            Path(artifacts),
            budget_seconds,
        )
        for name in names
    )


def _run_gate(
    gate: Gate,
    emit: Emit,
    baseline: Path,
    write_baseline: bool,
    artifacts: Path,
    budget_seconds: Optional[float],
) -> int:
    emit(f"== gate {gate.name}")
    artifacts.mkdir(parents=True, exist_ok=True)
    sink = (
        open(artifacts / gate.trace, "w", encoding="utf-8") if gate.trace else None
    )
    with TraceWriter(sink) as tracer:
        ctx = GateContext(gate.name, emit, tracer, artifacts, budget_seconds)
        for check in gate.checks:
            try:
                check(ctx)
            except Exception as exc:  # noqa: BLE001 - later checks must still run
                emit(traceback.format_exc().rstrip())
                ctx.fail(f"{check.__name__} raised {type(exc).__name__}: {exc}")
        tracer.event(
            "gate.done", gate=gate.name, ok=not ctx.failures, failures=len(ctx.failures)
        )
    if gate.trace:
        emit(f"trace -> {artifacts / gate.trace}")
    if gate.report:
        candidate = artifacts / gate.report
        ctx.report.write(candidate)
        emit(f"candidate report -> {candidate}")
        if write_baseline:
            if not ctx.failures:
                ctx.report.write(baseline)
                emit(f"baseline refreshed -> {baseline}")
        elif not baseline.exists():
            emit(f"error: baseline {baseline} not found (--write-baseline creates it)")
            return 2
        else:
            _judge_report(gate, ctx, load_report(baseline))
    if ctx.failures:
        emit(f"gate {gate.name} FAILED ({len(ctx.failures)} assertion(s)):")
        for failure in ctx.failures:
            emit(f"  - {failure}")
        return 1
    emit(f"gate {gate.name} OK: {gate.promise}")
    return 0


def _judge_report(gate: Gate, ctx: GateContext, baseline: BenchReport) -> None:
    """Baseline bands + ratchets -> failures; verdict table -> step summary."""
    comparison = compare_reports(baseline, ctx.report)
    for line in comparison.describe():
        ctx.emit(line)
    if not comparison.ok:
        ctx.fail("gated regression against the baseline (the [FAIL] lines above)")
    for name, direction in gate.ratchets:
        base = baseline.metrics.get(name)
        cand = ctx.report.metrics.get(name)
        if base is None or cand is None:
            continue
        lost = (
            cand.value < base.value - 1e-9
            if direction == "higher"
            else cand.value > base.value + 1e-9
        )
        if lost:
            ctx.fail(
                f"ratchet: {name} {cand.value:g} is worse than baseline "
                f"{base.value:g} (must be no "
                f"{'lower' if direction == 'higher' else 'higher'})"
            )
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        _write_summary(summary_path, gate, ctx, baseline, comparison)
        ctx.emit(f"summary table -> {summary_path}")


def _write_summary(
    path: str,
    gate: Gate,
    ctx: GateContext,
    baseline: BenchReport,
    comparison: Comparison,
) -> None:
    """Append the gate outcome as a markdown table (``$GITHUB_STEP_SUMMARY``).

    One row per baseline metric: section, scalar, baseline vs. candidate
    value, delta, and the verdict — ``ok`` (in band), ``drift`` (out of
    band but non-gating, e.g. timing metrics), ``FAIL`` (gated regression
    or a metric missing from the candidate).  Metrics the candidate added
    but the baseline lacks show as ``new``.
    """
    candidate = ctx.report
    regressions = {r.name: r for r in comparison.regressions}
    verdict_line = "**FAIL**" if ctx.failures else "**PASS** — no gated regressions"
    lines = [
        f"## {gate.name} gate",
        "",
        f"{verdict_line} ({comparison.compared} metrics compared "
        f"against the committed baseline)",
        "",
        "| section | scalar | baseline | candidate | delta | verdict |",
        "| --- | --- | ---: | ---: | ---: | --- |",
    ]
    for name in sorted(baseline.metrics):
        section, _, scalar = name.partition(".")
        base_value = baseline.metrics[name].value
        other = candidate.metrics.get(name)
        if other is None:
            lines.append(
                f"| {section} | {scalar} | {base_value:g} | — | — | FAIL (missing) |"
            )
            continue
        regression = regressions.get(name)
        verdict = (
            "ok" if regression is None else ("FAIL" if regression.gating else "drift")
        )
        lines.append(
            f"| {section} | {scalar} | {base_value:g} | {other.value:g} "
            f"| {other.value - base_value:+g} | {verdict} |"
        )
    for name in sorted(set(candidate.metrics) - set(baseline.metrics)):
        section, _, scalar = name.partition(".")
        lines.append(
            f"| {section} | {scalar} | — | {candidate.metrics[name].value:g} "
            f"| — | new |"
        )
    for note in ctx.notes:
        lines.extend(["", note])
    with open(path, "a", encoding="utf-8") as sink:
        sink.write("\n".join(lines) + "\n\n")
