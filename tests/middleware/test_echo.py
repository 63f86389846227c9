"""Unit tests for the IQ-ECho facade: sampling publisher + adaptive subscriber."""

import pytest

from repro.data.commercial import CommercialDataGenerator
from repro.middleware.attributes import (
    ATTR_COMPRESSION_METHOD,
    ATTR_LZ_REDUCING_SPEED,
    ATTR_SAMPLED_RATIO,
)
from repro.middleware.channels import ChannelError
from repro.middleware.echo import AdaptiveSubscriber, EchoSystem, SamplingPublisher
from repro.middleware.transport import TransportBridge
from repro.netsim.clock import VirtualClock
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.link import PAPER_LINKS, SimulatedLink, make_link
from repro.netsim.loadtrace import LoadTrace
from repro.core.sampler import LzSampler


class TestEchoSystem:
    def test_create_and_get(self):
        system = EchoSystem()
        channel = system.create_channel("c")
        assert system.get_channel("c") is channel
        assert system.channel_ids() == ["c"]

    def test_duplicate_rejected(self):
        system = EchoSystem()
        system.create_channel("c")
        with pytest.raises(ChannelError):
            system.create_channel("c")

    def test_unknown_rejected(self):
        with pytest.raises(ChannelError):
            EchoSystem().get_channel("nope")


class TestSamplingPublisher:
    def test_attaches_probe_attributes(self, commercial_block):
        system = EchoSystem()
        channel = system.create_channel("c")
        received = []
        channel.subscribe(received.append)
        publisher = SamplingPublisher(channel, sampler=LzSampler(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE))
        publisher.publish(commercial_block)
        event = received[0]
        assert 0 < event.attributes[ATTR_SAMPLED_RATIO] < 1
        assert event.attributes[ATTR_LZ_REDUCING_SPEED] > 0
        assert publisher.published == 1

    def test_timestamps_use_clock(self, commercial_block):
        clock = VirtualClock()
        clock.advance(5.0)
        system = EchoSystem()
        channel = system.create_channel("c")
        received = []
        channel.subscribe(received.append)
        SamplingPublisher(channel, clock=clock).publish(commercial_block)
        assert received[0].timestamp == 5.0


def build_world(link_name="100mbit", load=None, seed=1, congestion=0.5):
    clock = VirtualClock()
    link = SimulatedLink(PAPER_LINKS[link_name], seed=seed, congestion_per_connection=congestion)
    system = EchoSystem()
    source = system.create_channel("source")
    bridge = TransportBridge(link, clock, load=load)
    publisher = SamplingPublisher(
        source, sampler=LzSampler(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE), clock=clock
    )
    subscriber = AdaptiveSubscriber(system, source, bridge, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
    return clock, system, source, publisher, subscriber


class TestAdaptiveSubscriber:
    def test_starts_uncompressed(self):
        _, system, _, _, subscriber = build_world()
        assert subscriber.current_method == "none"
        assert system.attributes.get(ATTR_COMPRESSION_METHOD) == "none"

    def test_fast_link_stays_uncompressed(self, commercial_block):
        _, _, _, publisher, subscriber = build_world("1gbit")
        for _ in range(10):
            publisher.publish(commercial_block)
        methods = {r.method for r in subscriber.records}
        assert methods == {"none"}

    def test_loaded_link_switches_to_compression(self, commercial_block):
        heavy = LoadTrace.from_pairs([(0, 60)])
        _, _, _, publisher, subscriber = build_world("100mbit", load=heavy)
        for _ in range(12):
            publisher.publish(commercial_block)
        assert subscriber.switches >= 1
        assert subscriber.current_method in {"lempel-ziv", "burrows-wheeler"}
        late = [r.method for r in subscriber.records[-4:]]
        assert all(m != "none" for m in late)

    def test_payloads_reconstructed(self, commercial_block):
        heavy = LoadTrace.from_pairs([(0, 60)])
        _, _, _, publisher, subscriber = build_world("100mbit", load=heavy)
        seen_sizes = []
        subscriber.on_delivery = lambda r: seen_sizes.append(r.original_size)
        for _ in range(6):
            publisher.publish(commercial_block)
        assert all(s == len(commercial_block) for s in seen_sizes)

    def test_attribute_announces_switch(self, commercial_block):
        heavy = LoadTrace.from_pairs([(0, 60)])
        _, system, _, publisher, subscriber = build_world("100mbit", load=heavy)
        for _ in range(12):
            publisher.publish(commercial_block)
        assert (
            system.attributes.get(ATTR_COMPRESSION_METHOD) == subscriber.current_method
        )

    def test_derived_channels_created_lazily(self, commercial_block):
        _, _, source, publisher, subscriber = build_world("1gbit")
        for _ in range(3):
            publisher.publish(commercial_block)
        # only the "none" derivation should exist on a fast link
        assert len(source.derived_channels) == 1

    def test_switch_to_unoffered_method_raises(self):
        _, _, _, _, subscriber = build_world()
        with pytest.raises(ChannelError):
            subscriber._switch_to("arithmetic-deluxe")

    def test_records_carry_wire_measurements(self, commercial_block):
        _, _, _, publisher, subscriber = build_world()
        publisher.publish(commercial_block)
        record = subscriber.records[0]
        assert record.wire_size > 0
        assert record.transport_seconds > 0
        assert record.sampled_ratio is not None

    def test_two_heterogeneous_consumers_choose_independently(self, commercial_block):
        """§3.2: consumers customize delivery for themselves; a LAN consumer
        and a loaded-link consumer settle on different methods for the same
        producer."""
        clock = VirtualClock()
        system = EchoSystem()
        source = system.create_channel("source")
        publisher = SamplingPublisher(
            source, sampler=LzSampler(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE), clock=clock
        )
        fast_bridge = TransportBridge(
            SimulatedLink(PAPER_LINKS["1gbit"], seed=1), clock, advance_clock=False
        )
        slow_bridge = TransportBridge(
            SimulatedLink(PAPER_LINKS["100mbit"], seed=1, congestion_per_connection=0.5),
            clock,
            load=LoadTrace.from_pairs([(0, 60)]),
            advance_clock=False,
        )
        lan_consumer = AdaptiveSubscriber(
            system, source, fast_bridge,
            cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, consumer_id="lan",
        )
        wan_consumer = AdaptiveSubscriber(
            system, source, slow_bridge,
            cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, consumer_id="wan",
        )
        for _ in range(12):
            publisher.publish(commercial_block)
        assert len(lan_consumer.records) == len(wan_consumer.records) == 12
        assert lan_consumer.current_method == "none"
        assert wan_consumer.current_method in {"lempel-ziv", "burrows-wheeler"}
        # each consumer announces under its own namespaced attribute
        assert system.attributes.get("compression.method.lan") == "none"
        assert system.attributes.get("compression.method.wan") == wan_consumer.current_method
        # derived channels are per-consumer, so ids never collide
        ids = [c.channel_id for c in source.derived_channels]
        assert len(ids) == len(set(ids))

    def test_load_release_returns_to_none(self, commercial_block):
        trace = LoadTrace.from_pairs([(0, 60), (40, 0)])
        clock, _, _, publisher, subscriber = build_world("100mbit", load=trace)
        for i in range(40):
            target = i * 2.0
            if clock.now() < target:
                clock.advance(target - clock.now())
            publisher.publish(commercial_block)
        assert subscriber.records[-1].method == "none"
