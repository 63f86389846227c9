"""Shared session fixtures for the figure benchmarks.

Figures 8-10 present three views of one commercial replay and Figures
11-12 two views of one molecular replay; the runs are computed once per
session here and shared across the per-figure benchmark modules.

Two obs-era duties also live here:

* **One RNG seeding point.**  Every benchmark runs under the autouse
  :func:`pin_rng` fixture, which reseeds the global :mod:`random` (and
  numpy, when present) generators before each test.  Data generators and
  links already take explicit seeds; pinning the *ambient* generators on
  top makes the smoke-bench numbers identical run-to-run, which the CI
  regression gate requires to be non-flaky.
* **One result schema.**  Deterministic figures record metrics into a
  session :class:`~repro.obs.benchfmt.BenchReport` via the
  :func:`record_bench` fixture; pytest-benchmark wall-clock timings are
  folded in (as non-gating ``kind="timing"`` metrics) at session end.
  Set ``REPRO_BENCH_OUT=path.json`` to write the report.
* **No second copy of a gate.**  Scenarios the CI gates already define
  (``repro.verify.gates``) run here through :func:`run_check` — the
  gate's own check function, its verdicts asserted and its metrics
  folded into the session report — so a benchmark module keeps only
  what no gate checks (the ``benchmark``-fixture timings).
"""

import os
import random

import pytest

from repro.experiments import ReplayConfig, commercial_blocks, molecular_blocks, run_replay
from repro.obs.benchfmt import BenchReport
from repro.verify.gates import GateContext

#: The single ambient seed every benchmark starts from.
BENCH_SEED = 20040431

#: Scaled-down replay (64 blocks over the 160 s trace) keeping benchmark
#: wall time reasonable while preserving every regime transition.
BENCH_REPLAY = ReplayConfig(block_count=64, production_interval=2.5)


@pytest.fixture(autouse=True)
def pin_rng():
    """Reseed ambient RNGs before every benchmark (the one seeding point)."""
    random.seed(BENCH_SEED)
    try:
        import numpy

        numpy.random.seed(BENCH_SEED % (2**32))
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        pass
    yield


@pytest.fixture(scope="session")
def bench_report():
    """The session-wide machine-readable result report."""
    return BenchReport(metadata={"suite": "benchmarks", "seed": BENCH_SEED})


@pytest.fixture()
def record_bench(bench_report):
    """Record a deterministic metric into the session report."""

    def record(name, value, unit="", better="near", tolerance=0.0, kind="deterministic"):
        bench_report.record(
            name, value, unit=unit, kind=kind, better=better, tolerance=tolerance
        )

    return record


@pytest.fixture()
def run_check(bench_report):
    """Run one gate check in a throw-away context; its verdicts must hold."""

    def run(check):
        ctx = GateContext()
        check(ctx)
        assert not ctx.failures, ctx.failures
        for metric in ctx.report.metrics.values():
            bench_report.add(metric)
        return ctx.report

    return run


def pytest_sessionfinish(session, exitstatus):
    """Fold pytest-benchmark timings in and write the report when asked."""
    out = os.environ.get("REPRO_BENCH_OUT")
    if not out:
        return
    report = getattr(session, "_repro_bench_report", None)
    if report is None:  # no test ran; still emit a valid (empty) schema
        report = BenchReport(metadata={"suite": "benchmarks", "seed": BENCH_SEED})
    benchsession = getattr(session.config, "_benchmarksession", None)
    if benchsession is not None:
        for bench in getattr(benchsession, "benchmarks", []):
            stats = getattr(bench, "stats", None)
            mean = getattr(stats, "mean", None) if stats is not None else None
            if mean is not None:
                report.record(
                    f"timing.{bench.name}.mean_seconds", mean,
                    unit="seconds", kind="timing", better="lower", tolerance=0.25,
                )
    report.write(out)


@pytest.fixture(scope="session", autouse=True)
def _expose_bench_report(request, bench_report):
    """Make the session report reachable from pytest_sessionfinish."""
    request.session._repro_bench_report = bench_report
    yield


@pytest.fixture(scope="session")
def fig8_result():
    return run_replay(commercial_blocks(BENCH_REPLAY), BENCH_REPLAY)


@pytest.fixture(scope="session")
def fig11_result():
    return run_replay(molecular_blocks(BENCH_REPLAY), BENCH_REPLAY)


def print_series(title, series, fmt="{:>10.2f}  {}"):
    print(f"\n=== {title} ===")
    for t, value in series:
        print(fmt.format(t, value))
