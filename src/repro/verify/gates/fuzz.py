"""The ``fuzz`` gate: conformance, differential oracles, and byte fuzzing.

Four stages, each a hard assertion:

* **regression replay** — every entry in the committed crash corpus
  (``tests/verify/crash_corpus.jsonl``) must now be handled within the
  decode contract (:data:`~repro.compression.base.ACCEPTABLE_DECODE_ERRORS`);
* **conformance** — the declarative invariant kit
  (:mod:`repro.verify.conformance`) passes for every codec in
  ``available_codecs()``;
* **differential** — the cross-implementation sweep
  (:mod:`repro.verify.differential`): zlib/bz2 wire counterparts, scalar
  vs vectorized hot loops, serial vs parallel containers;
* **fuzz** — a deterministic coverage-guided mutation run over every
  decode surface.  The schedule is a pure function of the seed; the wall
  budget (``repro gate fuzz --budget``) can only truncate it (flagged,
  never a failure).

New crashes are shrunk to minimal reproducers and written to the
``fuzz_crashes.jsonl`` artifact (CI uploads it when the gate fails);
each line replays locally with ``repro fuzz --replay PATH``.
"""

from __future__ import annotations

from pathlib import Path

from ..conformance import conformance_failures, run_conformance
from ..corpus import CorpusGenerator
from ..differential import differential_failures, run_differential
from ..fuzz import Fuzzer, load_corpus, replay_corpus, write_corpus
from .runner import GateContext

#: Committed with the repository, so anchored there, not at the working
#: directory: the stage must not vanish when the gate runs from elsewhere.
REGRESSION_CORPUS = (
    Path(__file__).resolve().parents[4] / "tests" / "verify" / "crash_corpus.jsonl"
)
CRASH_ARTIFACT = "fuzz_crashes.jsonl"

#: The gated schedule; ``repro fuzz --seed/--iterations`` explores others.
FUZZ_SEED = 0
FUZZ_ITERATIONS = 4000


def stage_regression(ctx: GateContext) -> None:
    """Every committed crash reproducer is now handled within the contract."""
    if not REGRESSION_CORPUS.exists():
        ctx.fail(f"[regression] committed corpus {REGRESSION_CORPUS} not found")
        return
    entries = load_corpus(str(REGRESSION_CORPUS))
    still = [(entry, detail) for entry, fails, detail in replay_corpus(entries) if fails]
    ctx.emit(f"regression : {len(entries)} entries, {len(still)} still failing")
    for entry, detail in still:
        ctx.fail(
            f"[regression {entry.id}] {entry.target}: {detail} (was {entry.error_type})"
        )


def stage_conformance(ctx: GateContext) -> None:
    """The invariant kit passes for every registered codec."""
    results = run_conformance()
    failed = conformance_failures(results)
    ctx.emit(f"conformance: {len(results)} checks, {len(failed)} failed")
    for result in failed:
        ctx.fail(
            f"[conformance] {result.check} {result.codec} {result.case}: {result.detail}"
        )


def stage_differential(ctx: GateContext) -> None:
    """Our codecs agree with their reference implementations."""
    results = run_differential()
    failed = differential_failures(results)
    ctx.emit(f"differential: {len(results)} comparisons, {len(failed)} failed")
    for result in failed:
        ctx.fail(
            f"[differential] {result.kind} {result.subject} {result.case}: {result.detail}"
        )


def stage_fuzz(ctx: GateContext) -> None:
    """A seeded, time-boxed mutation run finds no contract violation."""
    corpus = CorpusGenerator(seed=FUZZ_SEED, size=4096).as_dict()
    report = Fuzzer(seed=FUZZ_SEED, corpus=corpus).run(
        iterations=FUZZ_ITERATIONS, budget_seconds=ctx.budget_seconds
    )
    ctx.emit(f"fuzz       : {report.describe()}")
    if report.crashes:
        artifact = ctx.artifacts / CRASH_ARTIFACT
        write_corpus(str(artifact), report.crashes)
        ctx.emit(f"crash artifact -> {artifact}")
        for crash in report.crashes:
            ctx.fail(
                f"[fuzz {crash.id}] {crash.target} raised {crash.error_type}: "
                f"{crash.error_message} (replay: repro fuzz --replay {artifact})"
            )


CHECKS = (stage_regression, stage_conformance, stage_differential, stage_fuzz)
