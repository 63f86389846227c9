"""The gate runner's own contract on throw-away in-test gates, then the
real table's cheap checks against the committed baseline."""

import itertools
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.benchfmt import BenchReport, load_report
from repro.obs.trace import read_trace
from repro.verify.gates import (
    DEFAULT_BASELINE,
    GATES,
    Gate,
    GateContext,
    chaos,
    fuzz,
    placement,
    run_gates,
    smoke,
)


def run(gate, tmp_path, **options):
    lines = []
    status = run_gates(
        [gate.name], {gate.name: gate}, lines.append, artifacts=str(tmp_path), **options
    )
    return status, lines


def baseline_file(tmp_path, **metrics):
    report = BenchReport()
    for name, (value, better) in metrics.items():
        report.record(name, value, better=better, tolerance=0.10)
    path = tmp_path / "baseline.json"
    report.write(path)
    return str(path)


class TestChecks:
    def test_failing_check_exits_1_and_later_checks_still_run(self, tmp_path):
        ran = []

        def broken(ctx):
            ctx.fail("the inequality does not hold")

        def raises(ctx):
            raise KeyError("scenario blew up")

        def later(ctx):
            ran.append("later")

        status, lines = run(Gate("g", "holds", (broken, raises, later)), tmp_path)
        assert status == 1
        assert ran == ["later"]
        assert "  - the inequality does not hold" in lines
        assert any("raises raised KeyError" in line for line in lines)
        assert "gate g FAILED (2 assertion(s)):" in lines

    def test_passing_gate_prints_its_promise_and_writes_the_trace(self, tmp_path):
        def traced(ctx):
            ctx.tracer.event("cell", value=3)

        status, lines = run(Gate("g", "holds", (traced,), trace="g.jsonl"), tmp_path)
        assert status == 0
        assert lines[-1] == "gate g OK: holds"
        names = [record["name"] for record in read_trace(tmp_path / "g.jsonl")]
        assert names == ["cell", "gate.done"]

    def test_twice_flags_a_check_whose_second_run_differs(self):
        ctx = GateContext()
        counter = itertools.count()
        assert ctx.twice(lambda: 7, "stable") == 7
        assert ctx.failures == []
        assert ctx.twice(lambda: next(counter), "drifting") == 0
        assert ctx.failures == ["drifting: outcome differs between identical runs"]


class TestBaseline:
    def test_missing_metric_fails_and_shows_in_the_summary(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        baseline = baseline_file(tmp_path, **{"s.kept": (1.0, "lower"), "s.gone": (2.0, "lower")})

        def check(ctx):
            ctx.record("s.kept", 1.0, better="lower")
            ctx.record("s.added", 5.0)
            ctx.notes.append("**note** from the check")

        status, lines = run(
            Gate("g", "holds", (check,), report="cand.json"), tmp_path, baseline=baseline
        )
        assert status == 1
        assert "[FAIL] s.gone: present in baseline, missing from candidate" in lines
        table = summary.read_text()
        assert "| s | gone | 2 | — | — | FAIL (missing) |" in table
        assert "| s | kept | 1 | 1 | +0 | ok |" in table
        assert "| s | added | — | 5 | — | new |" in table
        assert "**FAIL**" in table and "**note** from the check" in table
        assert (tmp_path / "cand.json").exists()

    @pytest.mark.parametrize("value, status", [(95.0, 1), (100.0, 0), (120.0, 0)])
    def test_ratchet_is_one_sided(self, tmp_path, monkeypatch, value, status):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        # 95 is inside the baseline's 10% band, so only the ratchet can fail it.
        baseline = baseline_file(tmp_path, **{"pool.mb_per_s": (100.0, "higher")})
        gate = Gate(
            "g", "holds",
            (lambda ctx: ctx.record("pool.mb_per_s", value, better="higher"),),
            report="cand.json",
            ratchets=(("pool.mb_per_s", "higher"),),
        )
        got, lines = run(gate, tmp_path, baseline=baseline)
        assert got == status
        assert any(line.startswith("  - ratchet: pool.mb_per_s") for line in lines) == bool(status)

    def test_write_baseline_is_the_only_writer_and_needs_a_clean_run(self, tmp_path):
        target = tmp_path / "fresh.json"
        good = Gate("g", "holds", (lambda ctx: ctx.exact("s.crc", 42),), report="cand.json")
        assert run(good, tmp_path, baseline=str(target))[0] == 2  # missing baseline
        assert not target.exists()
        assert run(good, tmp_path, baseline=str(target), write_baseline=True)[0] == 0
        assert target.read_text() == (tmp_path / "cand.json").read_text()
        bad = Gate("g", "holds", (lambda ctx: ctx.fail("no"),), report="cand.json")
        before = target.read_text()
        assert run(bad, tmp_path, baseline=str(target), write_baseline=True)[0] == 1
        assert target.read_text() == before


class TestCommand:
    def test_unknown_gate_exits_2_and_lists_the_known_ones(self, capsys):
        assert main(["gate", "no-such-gate"]) == 2
        out = capsys.readouterr().out
        assert "unknown gate no-such-gate" in out
        assert f"known gates: {', '.join(GATES)}" in out

    def test_bad_budget_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["gate", "fuzz", "--budget", "soon"])


REPO_ROOT = Path(__file__).resolve().parents[2]

#: The checks cheap enough for tier-1 (~3 s together); the heavy sections
#: (replays, the real process pool, fan-out, conformance, fuzzing) run
#: only under ``repro gate`` in their CI jobs.
FAST_CHECKS = [
    smoke.fig01_decision_sweep,
    smoke.chaos_recovery,
    smoke.bicriteria_model_grid,
    smoke.placement_breakeven,
    smoke.structured_ratio,
    chaos.fault_plan_matrix,
    chaos.replay_leg,
    placement.relay_leg,
    fuzz.stage_regression,
]


class TestRealGates:
    @pytest.mark.parametrize("check", FAST_CHECKS, ids=lambda check: check.__name__)
    def test_fast_check_holds_and_matches_the_committed_baseline(
        self, check, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)  # no check depends on the working directory
        ctx = GateContext()
        check(ctx)
        assert ctx.failures == []
        baseline = load_report(REPO_ROOT / DEFAULT_BASELINE)
        for name, metric in ctx.report.metrics.items():
            if metric.kind == "deterministic":
                assert metric == baseline.metrics[name]

    def test_a_missing_regression_corpus_fails_the_stage(self, monkeypatch, tmp_path):
        monkeypatch.setattr(fuzz, "REGRESSION_CORPUS", tmp_path / "gone.jsonl")
        ctx = GateContext()
        fuzz.stage_regression(ctx)
        assert len(ctx.failures) == 1 and "not found" in ctx.failures[0]

    def test_every_check_states_its_promise(self):
        for gate in GATES.values():
            assert gate.checks and all(check.__doc__ for check in gate.checks), gate.name
