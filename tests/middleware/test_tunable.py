"""Runtime-tunable compression parameters (paper §5 cap. 3): a
``CompressionHandler`` whose ``params`` are reconfigured while events flow."""

from repro.data.commercial import CommercialDataGenerator
from repro.middleware.attributes import ATTR_COMPRESSION_PARAMETERS, QualityAttributes
from repro.middleware.channels import EventChannel
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler, DecompressionHandler


class TestTunableCompressionHandler:
    def test_initial_parameters_applied(self):
        handler = CompressionHandler("burrows-wheeler", params={"chunk_size": 8192})
        assert handler.codec.chunk_size == 8192

    def test_reconfigure_rebuilds_codec(self):
        handler = CompressionHandler("burrows-wheeler", params={"chunk_size": 8192})
        handler.reconfigure(chunk_size=2048)
        assert handler.codec.chunk_size == 2048
        assert handler.reconfigurations == 1

    def test_events_flow_across_reconfiguration(self, commercial_block):
        handler = CompressionHandler("burrows-wheeler", params={"chunk_size": 16384})
        decompress = DecompressionHandler()
        before = handler(Event(payload=commercial_block))
        handler.reconfigure(chunk_size=2048)
        after = handler(Event(payload=commercial_block))
        # both generations decode with the self-describing stream format
        assert decompress(before).payload == commercial_block
        assert decompress(after).payload == commercial_block

    def test_bound_to_quality_attributes(self, commercial_block):
        attributes = QualityAttributes()
        handler = CompressionHandler("burrows-wheeler", params={"chunk_size": 16384})
        unsubscribe = handler.bind(attributes, ATTR_COMPRESSION_PARAMETERS)
        attributes.set(ATTR_COMPRESSION_PARAMETERS, {"chunk_size": 4096})
        assert handler.codec.chunk_size == 4096
        unsubscribe()
        attributes.set(ATTR_COMPRESSION_PARAMETERS, {"chunk_size": 1024})
        assert handler.codec.chunk_size == 4096  # detached

    def test_non_dict_attribute_ignored(self):
        attributes = QualityAttributes()
        handler = CompressionHandler("burrows-wheeler", params={"chunk_size": 8192})
        handler.bind(attributes, ATTR_COMPRESSION_PARAMETERS)
        attributes.set(ATTR_COMPRESSION_PARAMETERS, "not-a-dict")
        assert handler.codec.chunk_size == 8192

    def test_lempel_ziv_window_tuning(self):
        """The §5 use case: widen the Lempel-Ziv window for a better ratio."""
        block = next(CommercialDataGenerator().stream(128 * 1024, 1))
        handler = CompressionHandler("lempel-ziv", params={"window": 1024})
        narrow = handler(Event(payload=block))
        handler.reconfigure(window=32768)
        wide = handler(Event(payload=block))
        assert (narrow.size, wide.size) == (69_695, 46_530)
        decompress = DecompressionHandler()
        assert decompress(narrow).payload == decompress(wide).payload == block

    def test_in_channel_path(self, commercial_block):
        channel = EventChannel("src")
        handler = CompressionHandler("burrows-wheeler", params={"chunk_size": 8192})
        derived = channel.derive(handler)
        received = []
        derived.subscribe(received.append)
        channel.submit(Event(payload=commercial_block))
        handler.reconfigure(chunk_size=2048)
        channel.submit(Event(payload=commercial_block))
        assert len(received) == 2
        decompress = DecompressionHandler()
        assert all(decompress(e).payload == commercial_block for e in received)
