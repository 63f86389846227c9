"""The metric catalogue is complete, exact, and the only vocabulary.

Every emitter in ``src/repro`` is driven with a registry attached; what
lands must be catalogue rows (same kind, help, label keys, boundaries)
and every row must land somewhere.  Four of the drives are also pinned
value-for-value against goldens captured before the vocabulary modules
were folded into :mod:`repro.obs.catalogue`, as is the ``repro stats``
dump — the refactor's behaviour contract.
"""

import json
import random
import re
import socket
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.compression.base import CompressionResult
from repro.compression.bwhuff import BurrowsWheelerCodec
from repro.compression.registry import get_codec
from repro.core.engine import CodecExecutor
from repro.core.monitor import ReducingSpeedMonitor
from repro.core.policy import AdaptivePolicy
from repro.core.workers import PipelinedBlockEngine, WorkerPool
from repro.data.logs import LogDataGenerator
from repro.data.timeseries import TimeSeriesGenerator
from repro.experiments.config import ReplayConfig
from repro.experiments.replay import dataset_blocks, run_replay
from repro.fabric.batching import BatchConfig
from repro.fabric.broker import EventFabric
from repro.fabric.cache import BlockCache
from repro.middleware.attributes import QualityAttributes
from repro.middleware.channels import EventChannel
from repro.middleware.chaos import ChaosWire, DeliveryError, ReliableEventLink
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler, TunableCompressionHandler
from repro.middleware.monitoring import ChannelMonitor
from repro.middleware.relay import CompressionRelay
from repro.middleware.tcp import ChannelServer, RemoteChannel
from repro.netsim.clock import VirtualClock
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.faults import FaultPlan, FaultRule, FaultyLink, RetryPolicy
from repro.netsim.link import make_link
from repro.obs import BlockTelemetry, MetricsRegistry, set_registry
from repro.obs.catalogue import CATALOGUE
from tests.fabric.test_broker_threads import Gate, joined, started

HERE = Path(__file__).parent
REPO = HERE.parent.parent
STATS_ARGV = [
    "stats", "--dataset", "commercial", "--blocks", "8",
    "--policy", "bicriteria", "--placement", "auto", "--link", "1mbit",
]
PAYLOAD = (b"configurable compression for event fabrics " * 64)[:2048]


def _modeled_executor() -> CodecExecutor:
    return CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, expansion_fallback=True)


def _events(count: int, channel: str = "feed/0"):
    return [
        Event(
            payload=PAYLOAD[: 1024 + 64 * i],
            channel_id=channel,
            sequence=i + 1,
            timestamp=float(i),
        )
        for i in range(count)
    ]


# -- the drives: one per emitter ---------------------------------------------------


def drive_replay(registry: MetricsRegistry) -> None:
    """The ``repro stats`` run of :data:`STATS_ARGV`, without the CLI."""
    config = ReplayConfig(
        link="1mbit", block_count=8, policy="bicriteria", placement="auto"
    )
    telemetry = BlockTelemetry(registry=registry, channel="commercial")
    run_replay(
        dataset_blocks("commercial", config),
        config,
        observers=[telemetry],
        registry=registry,
    )


def drive_budget_violation(registry: MetricsRegistry) -> None:
    """A bicriteria decision whose space budget no frontier point fits."""
    monitor = ReducingSpeedMonitor(registry=registry)
    policy = AdaptivePolicy(
        policy="bicriteria", space_budget=0.001, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE
    )
    policy.choose(128 * 1024, 0.5, monitor, None)


def drive_fanout(registry: MetricsRegistry) -> None:
    """Inline fabric: shared cache (one eviction), plain + batched sinks."""
    cache = BlockCache(max_entries=2, registry=registry)
    fabric = EventFabric(
        shards=2, executor=_modeled_executor(), cache=cache, registry=registry
    )
    for _ in range(3):
        fabric.subscribe("feed/0", lambda e, w: None, method="huffman")
    fabric.subscribe(
        "feed/0",
        lambda e, w: None,
        method="lempel-ziv",
        wire=True,
        batch=BatchConfig(max_frames=2),
    )
    events = _events(3)
    for event in events:
        fabric.publish("feed/0", event)
    fabric.publish("feed/0", events[-1])  # served from the cache
    fabric.close()  # drains the half-full batch


def drive_threads_fabric(registry: MetricsRegistry) -> None:
    """Threads mode is the only publisher of the shard queue depth (a
    queued dispatch) and of the inline-dispatch count (an idle shard)."""
    fabric = EventFabric(shards=1, registry=registry, mode="threads")
    gate = Gate()
    first, second = _events(2)
    try:
        fabric.subscribe("feed/0", gate)
        # The shard is idle: the publisher's thread runs the delivery ...
        holder = started(fabric.publish, "feed/0", first)
        assert gate.entered.wait(10.0)
        # ... and holds the shard while it does, so this one queues.
        fabric.publish("feed/0", second)
        gate.release.set()
        joined(holder)
        assert fabric.flush()
        assert fabric.inline_dispatches == 1 and fabric.events_published == 2
    finally:
        gate.release.set()
        fabric.close()


def drive_relay(registry: MetricsRegistry) -> None:
    relay = CompressionRelay(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, registry=registry)
    tuned = CompressionRelay(
        params={"max_chain": 4}, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, registry=registry
    )
    for event in _events(2):
        relay(event)
        tuned(event)


def drive_chaos_link(registry: MetricsRegistry) -> None:
    """Every recovery branch of the reliable link, then an exhausted send."""
    retry = RetryPolicy(max_attempts=6, base_delay=0.01, max_delay=0.1, seed=0)
    plan = FaultPlan(
        [
            FaultRule(kind="corrupt", index=0),
            FaultRule(kind="drop", index=2),
            FaultRule(kind="duplicate", index=4),
            FaultRule(kind="reorder", index=5),
        ],
        seed=1,
    )
    link = ReliableEventLink(
        ChaosWire(plan), lambda e: None, retry=retry, clock=VirtualClock(),
        registry=registry,
    )
    for event in _events(6, channel="chan"):
        link.send(event)
    # No production caller declares a fragment damaged; the hook is the
    # reassembly's public surface, so the drive pulls it directly.
    link.reassembly.damaged(link.reassembly.next_sequence)
    link.close()
    dead = ReliableEventLink(
        ChaosWire(FaultPlan([FaultRule(kind="drop")])),
        lambda e: None,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.1, seed=0),
        registry=registry,
    )
    with pytest.raises(DeliveryError):
        dead.send(_events(1, channel="chan")[0])


def drive_faulty_link(registry: MetricsRegistry) -> None:
    plan = FaultPlan([FaultRule(kind="drop", index=0), FaultRule(kind="delay", index=2, delay=0.1)])
    link = FaultyLink(
        make_link("100mbit", seed=2), plan, retry=RetryPolicy(jitter=0.0), registry=registry
    )
    for _ in range(3):
        link.transfer_time(1024)


def drive_structured(registry: MetricsRegistry) -> None:
    """Both structured codecs, a structured and a fallback block each.

    They report to the process default registry, swapped in for the run.
    """
    previous = set_registry(registry)
    try:
        get_codec("template").compress(LogDataGenerator(seed=5).log_block(16 * 1024))
        get_codec("columnar").compress(TimeSeriesGenerator(seed=5).records_block(16 * 1024))
        get_codec("template").compress(bytes(range(256)))
        get_codec("columnar").compress(b"\x07")
    finally:
        set_registry(previous)


def drive_pool(registry: MetricsRegistry) -> None:
    """A process pool killed under load, then a pipelined engine on it."""
    data = b"degrade me " * 400
    with WorkerPool(workers=2, mode="processes", registry=registry) as pool:
        pool.run("lzw", data)  # spawn workers
        for process in list(pool._executor._processes.values()):
            process.kill()
        pool.run("lzw", data)
        assert pool.mode == "serial"
        PipelinedBlockEngine(
            CodecExecutor(), block_size=4096, pool=pool, registry=registry
        ).run(data, method="huffman")


def drive_handler(registry: MetricsRegistry) -> None:
    """A runtime reconfiguration, then an expansion-guard fallback block."""
    handler = TunableCompressionHandler(
        "burrows-wheeler", BurrowsWheelerCodec, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE,
        registry=registry, channel="tuned", chunk_size=8192,
    )
    handler.reconfigure(chunk_size=2048)
    handler(Event(payload=PAYLOAD))
    incompressible = random.Random(1234).randbytes(4096)
    CompressionHandler(
        "huffman", cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, registry=registry
    )(Event(payload=incompressible))


def drive_channel_monitor(registry: MetricsRegistry) -> None:
    channel = EventChannel("feed")
    monitor = ChannelMonitor(
        channel, clock=VirtualClock(), attributes=QualityAttributes(), registry=registry
    )
    channel.submit(Event(payload=PAYLOAD))
    monitor.publish()


def drive_stale_policy(registry: MetricsRegistry) -> None:
    """A monitor that stops observing degrades method and placement."""
    monitor = ReducingSpeedMonitor(registry=registry)
    # The one monitor entry point that also folds the ratio estimate.
    monitor.observe(CompressionResult("lempel-ziv", 140_000, 42_000, 0.07))
    policy = AdaptivePolicy(staleness_horizon=1, placement="auto")
    for _ in range(3):
        policy.choose(128 * 1024, 0.5, monitor, None)
    assert policy.degraded_decisions == 1


def drive_tcp(registry: MetricsRegistry) -> None:
    """Loopback server/client pair, through one cut-and-reconnect."""
    server = ChannelServer(registry=registry)
    try:
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        remote = RemoteChannel(
            host, port, "feed", registry=registry, reconnect=True,
            retry=RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05),
        )
        try:
            channel.submit(Event(payload=b"before"))
            assert remote.wait_for(1)
            remote._socket.shutdown(socket.SHUT_RDWR)
            deadline = time.monotonic() + 5.0
            while remote.reconnects == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert remote.reconnects == 1
            channel.submit(Event(payload=b"after"))
            assert remote.wait_for(2)
        finally:
            remote.close()
    finally:
        server.close()


#: Drives whose ``as_dict()`` is pinned against the pre-refactor capture.
GOLDEN_DRIVES = {
    "fanout": drive_fanout,
    "relay": drive_relay,
    "chaos_link": drive_chaos_link,
    "structured": drive_structured,
}

DRIVES = [
    drive_replay,
    drive_budget_violation,
    drive_threads_fabric,
    drive_faulty_link,
    drive_pool,
    drive_handler,
    drive_channel_monitor,
    drive_stale_policy,
    drive_tcp,
    *GOLDEN_DRIVES.values(),
]


# -- (a) completeness and exactness ------------------------------------------------


def test_every_family_is_a_row_and_every_row_is_emitted():
    emitted = set()
    for drive in DRIVES:
        registry = MetricsRegistry()
        drive(registry)
        for name in registry.names():
            family = registry.get(name)
            row = CATALOGUE.get(name)
            assert row is not None, f"{drive.__name__} emitted uncatalogued {name}"
            assert family.kind == row.kind, name
            assert family.help == row.help, name
            assert getattr(family, "boundaries", ()) == row.boundaries, name
            for labels in family.labelsets():
                assert set(labels) == set(row.labels), (name, labels)
            if family.series_count:
                emitted.add(name)
    # No exceptions: every catalogue row has a drive that emits it.
    assert emitted == set(CATALOGUE)


@pytest.mark.parametrize("name", sorted(GOLDEN_DRIVES))
def test_drive_registry_matches_pre_refactor_golden(name):
    golden = json.loads((HERE / "golden_registry_drives.json").read_text())
    registry = MetricsRegistry()
    GOLDEN_DRIVES[name](registry)
    assert registry.as_dict() == golden[name]


def test_stats_stdout_matches_pre_refactor_golden(capsys):
    assert main(STATS_ARGV) == 0
    assert capsys.readouterr().out == (HERE / "golden_stats_stdout.json").read_text()


# -- (b) the docs speak the catalogue's names ---------------------------------------


def test_docs_name_only_catalogued_series():
    documents = [REPO / "README.md", REPO / "DESIGN.md", *sorted((REPO / "docs").glob("*.md"))]
    unknown = []
    for path in documents:
        for token in sorted(set(re.findall(r"repro_[a-z_]+", path.read_text()))):
            if not any(name.startswith(token) for name in CATALOGUE):
                unknown.append(f"{path.name}: {token}")
    assert not unknown, unknown
