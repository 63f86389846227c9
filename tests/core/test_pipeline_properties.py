"""Property-based tests on pipeline invariants.

Whatever the block stream, link, load, or pacing, certain things must
always hold: every non-empty block yields exactly one record, time is
monotone, compressed payloads round-trip, and the accounting identities
connect records to aggregates.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.pipeline import AdaptivePipeline
from repro.data.commercial import CommercialDataGenerator
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.link import PAPER_LINKS, SimulatedLink
from repro.netsim.loadtrace import LoadTrace
from tests.strategies import examples, link_names

_GENERATOR = CommercialDataGenerator(seed=1717)
_POOL = list(_GENERATOR.stream(16 * 1024, 24))


def _pipeline():
    return AdaptivePipeline(
        block_size=16 * 1024, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE
    )


@st.composite
def scenarios(draw):
    block_count = draw(st.integers(min_value=0, max_value=10))
    blocks = [_POOL[i % len(_POOL)] for i in range(block_count)]
    link_name = draw(link_names())
    connections = draw(st.floats(min_value=0.0, max_value=80.0))
    interval = draw(st.sampled_from([0.0, 0.5, 2.0]))
    pipelined = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=1000))
    return blocks, link_name, connections, interval, pipelined, seed


@given(scenarios())
@examples(40)
def test_pipeline_invariants(scenario):
    blocks, link_name, connections, interval, pipelined, seed = scenario
    link = SimulatedLink(PAPER_LINKS[link_name], seed=seed, congestion_per_connection=0.4)
    load = LoadTrace.from_pairs([(0.0, connections)])
    result = _pipeline().run(
        blocks,
        link,
        load=load,
        production_interval=interval,
        pipelined=pipelined,
    )

    # one record per non-empty block, in order
    assert len(result.records) == len([b for b in blocks if b])
    assert [r.index for r in result.records] == list(range(len(result.records)))

    # time is monotone and total covers every record
    starts = [r.start_time for r in result.records]
    assert starts == sorted(starts)
    for record in result.records:
        assert record.send_start_time >= record.start_time
        assert result.total_time >= record.send_start_time

    # accounting identities
    assert result.total_original_bytes == sum(r.original_size for r in result.records)
    assert result.total_compressed_bytes == sum(
        r.compressed_size for r in result.records
    )
    assert sum(result.method_counts().values()) == len(result.records)
    assert 0.0 <= result.compression_time_fraction <= 1.0

    # every chosen method is a paper method with a sane payload
    for record in result.records:
        assert record.method in {"none", "huffman", "lempel-ziv", "burrows-wheeler"}
        if record.method == "none":
            assert record.compressed_size == record.original_size
            assert record.compression_time == 0.0
        else:
            assert record.compression_time > 0.0


@given(st.integers(min_value=0, max_value=999))
@examples(15)
def test_pipeline_deterministic_given_seed(seed):
    blocks = _POOL[:6]
    def run():
        link = SimulatedLink(PAPER_LINKS["100mbit"], seed=seed)
        return _pipeline().run(blocks, link)
    a, b = run(), run()
    assert [r.method for r in a.records] == [r.method for r in b.records]
    assert a.total_time == b.total_time


@given(st.data())
@examples(15)
def test_verify_mode_roundtrips_random_streams(data):
    rng = random.Random(data.draw(st.integers(0, 500)))
    blocks = [
        bytes(rng.getrandbits(8) for _ in range(rng.randrange(1024, 4096)))
        for _ in range(3)
    ]
    pipeline = AdaptivePipeline(
        block_size=1024,
        cost_model=DEFAULT_COSTS,
        cpu=SUN_FIRE,
        verify=True,
    )
    link = SimulatedLink(PAPER_LINKS["1mbit"], seed=1)
    result = pipeline.run(blocks, link)
    assert len(result.records) == 3
