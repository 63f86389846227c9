"""Refactor-equivalence: the engine-backed pipeline must replay the seed.

``golden_replay.json`` was captured from the pre-engine code (the seed's
``AdaptivePipeline`` with inline ``_compress``/``_decompression_time``)
running the deterministic Figure 8 and Figure 11 replays.  The modeled
cost mode makes those replays bit-exact, so after routing the pipeline
through :class:`repro.core.engine.CodecExecutor` the method sequence,
block sizes and modeled times must match the snapshot *exactly* — any
drift means the refactor changed behaviour, not just structure.

The ``decisions`` key pins the selector itself, for every dialect: a
seeded scripted trace drives :meth:`AdaptivePolicy.choose` directly (no
codec runs) and every :class:`Decision` field, the run's totals and a CRC
of the selector-side metrics must reproduce the values captured before
``core/policy.py`` became one candidates → price → constrain → choose
pipeline (``_capture_decisions()`` at that commit).  The totals were the
policy's running counters then; the policy keeps none now, so they are
recomputed here from the returned decisions, in decision order.
Between them the presets pass every ``AdaptivePolicy`` argument, which
:func:`test_presets_exercise_every_policy_argument` asserts.
"""

import dataclasses
import inspect
import json
import math
import random
import zlib
from collections import Counter
from functools import reduce
from operator import add
from pathlib import Path

import pytest

from repro.core.decision import Decision, DecisionThresholds
from repro.core.engine import BlockStats
from repro.core.monitor import ReducingSpeedMonitor
from repro.core.policy import AdaptivePolicy
from repro.experiments.replay import (
    figure8_commercial_replay,
    figure11_molecular_replay,
)
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_replay.json").read_text()
)


def _series(result):
    return {
        "methods": [record.method for record in result.records],
        "compressed_sizes": [record.compressed_size for record in result.records],
        "original_sizes": [record.original_size for record in result.records],
        "compression_times": [record.compression_time for record in result.records],
    }


@pytest.mark.parametrize(
    "name, replay",
    [
        ("figure8", figure8_commercial_replay),
        ("figure11", figure11_molecular_replay),
    ],
)
def test_replay_matches_pre_refactor_golden_series(name, replay):
    golden = GOLDEN[name]
    got = _series(replay())
    assert got["methods"] == golden["methods"]
    assert got["compressed_sizes"] == golden["compressed_sizes"]
    assert got["original_sizes"] == golden["original_sizes"]
    assert got["compression_times"] == golden["compression_times"]


def test_replay_is_internally_deterministic():
    first = _series(figure8_commercial_replay())
    second = _series(figure8_commercial_replay())
    assert first == second


# -- selector decisions, all dialects ----------------------------------------------

_MODELED = dict(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, native=False)

#: preset name -> AdaptivePolicy keywords; between them every constructor
#: argument is exercised.  Every placement preset carries a cost model:
#: scheduling with nothing priceable is pinned separately
#: (tests/core/test_placement.py).
DECISION_PRESETS = {
    "table": dict(thresholds=DecisionThresholds()),
    "bicriteria": dict(policy="bicriteria", **_MODELED),
    "bicriteria_auto": dict(
        policy="bicriteria", placement="auto", interference=0.5,
        downstream_factor=16.0, **_MODELED,
    ),
    "table_auto": dict(placement="auto", interference=0.15, **_MODELED),
    "bicriteria_auto_stale": dict(
        policy="bicriteria", placement="auto", staleness_horizon=3,
        downstream_factor=4.0, **_MODELED,
    ),
    "budget_consumer": dict(
        policy="bicriteria", space_budget=0.15, placement="consumer",
        downstream_factor=6.0, **_MODELED,
    ),
}

DECISION_STEPS = 200

_FIELDS = [f.name for f in dataclasses.fields(Decision)]


def _running_total(values):
    """Left-to-right float adds, as a running counter makes them (``sum``
    rounds differently from Python 3.12 on)."""
    return reduce(add, values, 0.0)


def _totals(decisions):
    """The seven run totals the golden file pins, from the decisions alone."""
    chosen = [d for d in decisions if d.frontier_size > 0]
    placed = [d for d in decisions if not math.isnan(d.placement_seconds)]
    return {
        "choices": len(chosen),
        "budget_violations": sum(d.budget_violated for d in decisions),
        "degraded_decisions": sum(d.degraded for d in decisions),
        "modeled_seconds_total": _running_total(d.modeled_seconds for d in chosen),
        "table_modeled_seconds_total": _running_total(
            d.table_modeled_seconds for d in chosen
            if not math.isnan(d.table_modeled_seconds)
        ),
        "placement_modeled_seconds_total": _running_total(
            d.placement_seconds for d in placed
        ),
        "producer_placement_seconds_total": _running_total(
            d.producer_seconds for d in placed
        ),
    }


def _pin(value):
    """Exact, diffable spelling of one field: floats as ``float.hex``."""
    if isinstance(value, float) and math.isfinite(value):
        return value.hex()
    return repr(value)


def _decision_trace(preset):
    """Drive one preset through the scripted (size, time, monitor, sample) steps."""
    rng = random.Random(zlib.crc32(preset.encode()))
    policy = AdaptivePolicy(**DECISION_PRESETS[preset])
    monitor = ReducingSpeedMonitor()
    decisions = []
    for step in range(DECISION_STEPS):
        block_size = rng.choice((128 * 1024, 128 * 1024, 64 * 1024, 4096))
        sending_time = 10.0 ** rng.uniform(-4.5, 0.5)
        # Feedback arrives in bursts with silent gaps longer than the
        # staleness horizon, so degraded fallbacks start and clear.
        if step % 23 < 14:
            for method in ("lempel-ziv", "huffman", "burrows-wheeler"):
                if rng.random() < 0.6:
                    monitor.observe_raw(
                        method, rng.randrange(0, block_size), 10.0 ** rng.uniform(-3, -0.5)
                    )
        kind = rng.randrange(4)
        if kind == 0:
            sample = None
        elif kind == 1:
            sample = rng.uniform(0.05, 1.1)
        else:
            compressed = rng.randrange(200, 4300)
            sample = BlockStats("lempel-ziv", "lempel-ziv", 4096, compressed, 0.001)
        decisions.append(policy.choose(block_size, sending_time, monitor, sample))
    placed = Counter(d.placement for d in decisions if not math.isnan(d.placement_seconds))
    return {
        "fields": _FIELDS,
        "rows": [
            "|".join(_pin(getattr(decision, name)) for name in _FIELDS)
            for decision in decisions
        ],
        "totals": {name: _pin(value) for name, value in _totals(decisions).items()},
        "placement_counts": dict(sorted(placed.items())),
        "metrics_crc32": zlib.crc32(monitor.registry.to_json().encode()),
    }


def _capture_decisions():
    """Rewrite the ``decisions`` key of the golden file from this checkout."""
    golden = dict(GOLDEN, decisions={p: _decision_trace(p) for p in DECISION_PRESETS})
    (Path(__file__).parent / "golden_replay.json").write_text(
        json.dumps(golden, indent=0, sort_keys=True)
    )


def test_presets_exercise_every_policy_argument():
    passed = set().union(*DECISION_PRESETS.values())
    assert passed == set(inspect.signature(AdaptivePolicy).parameters)


@pytest.mark.parametrize("preset", sorted(DECISION_PRESETS))
def test_selector_decisions_match_pre_pipeline_golden(preset):
    golden = GOLDEN["decisions"][preset]
    got = _decision_trace(preset)
    assert got["fields"] == golden["fields"]
    for step, (row, want) in enumerate(zip(got["rows"], golden["rows"])):
        assert row == want, f"{preset} step {step}"
    assert len(got["rows"]) == len(golden["rows"]) >= 200
    assert got["totals"] == golden["totals"]
    assert got["placement_counts"] == golden["placement_counts"]
    assert got["metrics_crc32"] == golden["metrics_crc32"]
