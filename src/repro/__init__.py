"""repro — Configurable compression for efficient end-to-end data exchange.

A full reproduction of Wiseman, Schwan & Widener, "Efficient End to End
Data Exchange Using Configurable Compression" (ICDCS 2004): from-scratch
lossless codecs (Huffman, arithmetic, Lempel-Ziv with Huffman-coded
pointers, a chunk-synchronizable Burrows-Wheeler pipeline), the
table-driven adaptive method selector, an ECho-like publish/subscribe
middleware with derived channels and quality attributes, and the
simulation substrate (links, CPU models, MBone load traces) needed to
regenerate every figure of the paper's evaluation.

Quick start::

    from repro import AdaptivePipeline, CommercialDataGenerator
    from repro.netsim import make_link, mbone_trace, DEFAULT_COSTS, SUN_FIRE

    blocks = list(CommercialDataGenerator().stream(128 * 1024, 50))
    pipeline = AdaptivePipeline(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
    result = pipeline.run(blocks, make_link("100mbit"),
                          load=mbone_trace().scaled(4.0),
                          production_interval=1.25)
    summary = result.summary()
"""

from .compression import (
    ArithmeticCodec,
    BurrowsWheelerCodec,
    Codec,
    CodecError,
    CompressionResult,
    CorruptStreamError,
    HuffmanCodec,
    IdentityCodec,
    Lz77Codec,
    available_codecs,
    get_codec,
    register_codec,
)
from .core import (
    DEFAULT_BLOCK_SIZE,
    FIGURE1_TABLE,
    METHOD_CODES,
    AdaptivePipeline,
    AdaptivePolicy,
    BlockEngine,
    BlockRecord,
    BlockStats,
    CodecExecutor,
    Decision,
    DecisionInputs,
    DecisionThresholds,
    FixedPolicy,
    LzSampler,
    Rating,
    ReducingSpeedMonitor,
    SampleResult,
    StreamResult,
    measure,
    select_method,
)
from .data import (
    CommercialDataGenerator,
    MolecularDataGenerator,
    RecordFormat,
    decode_records,
    encode_records,
)
from .middleware import (
    AdaptiveSubscriber,
    EchoSystem,
    Event,
    EventChannel,
    SamplingPublisher,
    TransportBridge,
)
from .netsim import (
    DEFAULT_COSTS,
    PAPER_LINKS,
    SUN_FIRE,
    ULTRA_SPARC,
    CodecCostModel,
    CpuModel,
    LoadTrace,
    SimulatedLink,
    VirtualClock,
    make_link,
    mbone_trace,
)
from .obs import (
    BenchReport,
    BlockTelemetry,
    MetricsRegistry,
    TraceWriter,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptivePipeline",
    "AdaptivePolicy",
    "AdaptiveSubscriber",
    "ArithmeticCodec",
    "BenchReport",
    "BlockEngine",
    "BlockRecord",
    "BlockStats",
    "BlockTelemetry",
    "BurrowsWheelerCodec",
    "Codec",
    "CodecCostModel",
    "CodecError",
    "CodecExecutor",
    "CommercialDataGenerator",
    "CompressionResult",
    "CorruptStreamError",
    "CpuModel",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_COSTS",
    "Decision",
    "DecisionInputs",
    "DecisionThresholds",
    "EchoSystem",
    "Event",
    "EventChannel",
    "FIGURE1_TABLE",
    "FixedPolicy",
    "HuffmanCodec",
    "IdentityCodec",
    "LoadTrace",
    "Lz77Codec",
    "LzSampler",
    "METHOD_CODES",
    "MetricsRegistry",
    "MolecularDataGenerator",
    "PAPER_LINKS",
    "Rating",
    "RecordFormat",
    "ReducingSpeedMonitor",
    "SUN_FIRE",
    "SampleResult",
    "SamplingPublisher",
    "SimulatedLink",
    "StreamResult",
    "TraceWriter",
    "TransportBridge",
    "ULTRA_SPARC",
    "VirtualClock",
    "available_codecs",
    "decode_records",
    "encode_records",
    "get_codec",
    "make_link",
    "mbone_trace",
    "measure",
    "register_codec",
    "select_method",
]
