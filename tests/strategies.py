"""Shared hypothesis strategies and suite-wide constants.

Single home for the generators every property test reaches for: codec
names straight from the registry, payload corpora, the RLE-adversarial
alphabet, and the one ambient RNG seed (pinned before every test by the
autouse fixture in ``tests/conftest.py``, the same way
``benchmarks/conftest.py`` pins the benchmark suite).
"""

from hypothesis import settings
from hypothesis import strategies as st

from repro.compression.bwhuff import BurrowsWheelerCodec, _encode_chunk, _joint_encode
from repro.compression.parallel import DegradingPool
from repro.compression.registry import available_codecs
from repro.data import (
    CommercialDataGenerator,
    LogDataGenerator,
    MolecularDataGenerator,
    TimeSeriesGenerator,
)

#: The single ambient seed the whole test suite starts from (mirrors
#: BENCH_SEED in benchmarks/conftest.py).
SUITE_SEED = 20040431

#: Examples per property under the ``tier1`` hypothesis profile when a
#: test asks for no count of its own (hypothesis' default); the profiles
#: registered in ``tests/conftest.py`` are multiples of it.
TIER1_EXAMPLES = 100


def examples(count: int) -> settings:
    """Decorator: ``count`` examples under the ``tier1`` profile, and as
    many times more as the selected profile runs (``nightly``: ten)."""
    return settings(max_examples=count * settings.default.max_examples // TIER1_EXAMPLES)


#: Every registered codec but the identity codec "none": the ones whose
#: round trip actually transforms the bytes.
LOSSLESS_CODECS = [name for name in available_codecs() if name != "none"]

def bw_in_process(codec: BurrowsWheelerCodec, data: bytes) -> bytes:
    """``codec.compress(data)`` from the plain in-process chunk loop."""
    return _joint_encode(len(data), [_encode_chunk(chunk) for chunk in codec._cut(data)])


def serial_pool() -> DegradingPool:
    """A stand-in for the shared codec pool that runs every task in the
    caller: a pool degraded once, as a broken one is."""
    pool = DegradingPool(1)
    pool._degrade()
    return pool


#: A medium-entropy, string-repetitive seed block for corruption tests.
SEED_DATA = b"the configurable compression corruption corpus " * 64

#: The four corpora as the wall-clock benchmark seeds them (seed 2004).
SEEDED_CORPORA = {
    "commercial": lambda: CommercialDataGenerator(seed=2004),
    "molecular": lambda: MolecularDataGenerator(atom_count=4096, seed=2004),
    "logs": lambda: LogDataGenerator(seed=2004),
    "timeseries": lambda: TimeSeriesGenerator(seed=2004),
}


def seeded_block(corpus: str, size: int) -> bytes:
    """The first ``size``-byte block of one seeded benchmark corpus."""
    return next(iter(SEEDED_CORPORA[corpus]().stream(size, 1)))


#: The paper's four simulated link classes.
LINK_NAMES = ["1gbit", "100mbit", "1mbit", "international"]


def lossless_codec_names() -> st.SearchStrategy:
    """One registered lossless codec name."""
    return st.sampled_from(LOSSLESS_CODECS)


def payloads(max_size: int = 2048) -> st.SearchStrategy:
    """Arbitrary byte payloads, the default round-trip input."""
    return st.binary(max_size=max_size)


def rle_adversarial_payloads(max_size: int = 1500) -> st.SearchStrategy:
    """Bytes skewed toward the RLE escape machinery (0-runs, 253/254/255)."""
    return st.lists(
        st.sampled_from([0, 0, 0, 0, 1, 7, 253, 254, 255]), max_size=max_size
    ).map(bytes)


def link_names() -> st.SearchStrategy:
    """One of the paper's simulated link classes."""
    return st.sampled_from(LINK_NAMES)


def stream_block_sizes() -> st.SearchStrategy:
    """Valid streaming block sizes (the API floor is 1024)."""
    return st.sampled_from([1024, 2048, 4096, 16 * 1024])


def log_line_payloads(max_lines: int = 64) -> st.SearchStrategy:
    """Newline-joined templated log lines for the template codec.

    Lines are drawn from a handful of skeletons whose slots carry the
    three typed values the miner channels (decimal runs, dotted quads,
    long hex runs), so generated blocks exercise every channel mode while
    hypothesis still shrinks to readable minimal examples.
    """
    octet = st.integers(min_value=0, max_value=255)
    ip = st.builds(lambda a, b, c, d: f"{a}.{b}.{c}.{d}", octet, octet, octet, octet)
    number = st.integers(min_value=0, max_value=2**48)
    digest = st.integers(min_value=0, max_value=2**64 - 1).map(lambda v: "%016x" % v)
    line = st.one_of(
        st.builds("ts={} level=INFO worker accepted from {}".format, number, ip),
        st.builds("ts={} level=WARN retry seq={} digest={}".format, number, number, digest),
        st.builds("block {} replicated to {} in {} ms".format, digest, ip, number),
        st.builds("heartbeat {}".format, number),
    )
    return (
        st.lists(line, min_size=0, max_size=max_lines)
        .map(lambda lines: "".join(item + "\n" for item in lines).encode("ascii"))
    )


def record_payloads(max_records: int = 96) -> st.SearchStrategy:
    """Fixed-width little-endian uint64 record arrays for columnar.

    Each record is four 8-byte fields: a slowly-advancing counter-like
    field, a free 64-bit field, and two narrow fields — together covering
    the delta, delta-of-delta, and raw column modes.
    """
    u64 = st.integers(min_value=0, max_value=2**64 - 1)
    narrow = st.integers(min_value=0, max_value=2**12)
    record = st.tuples(st.integers(min_value=0, max_value=2**40), u64, narrow, narrow)
    return st.lists(record, min_size=0, max_size=max_records).map(
        lambda records: b"".join(
            value.to_bytes(8, "little") for record in records for value in record
        )
    )
