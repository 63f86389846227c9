"""Unit tests for the commercial and molecular dataset generators."""

import pytest

from repro.compression import get_codec
from repro.data.commercial import AIRPORTS, CommercialDataGenerator
from repro.data.molecular import FRAME_FORMAT, MolecularDataGenerator
from repro.data.pbio import decode_records


class TestCommercialGenerator:
    def test_deterministic_per_seed(self):
        a = CommercialDataGenerator(seed=1).xml_block(8192)
        b = CommercialDataGenerator(seed=1).xml_block(8192)
        assert a == b

    def test_different_seeds_differ(self):
        a = CommercialDataGenerator(seed=1).xml_block(8192)
        b = CommercialDataGenerator(seed=2).xml_block(8192)
        assert a != b

    def test_reset_rewinds(self):
        gen = CommercialDataGenerator(seed=3)
        first = gen.xml_block(4096)
        gen.reset()
        assert gen.xml_block(4096) == first

    def test_transaction_fields(self):
        txn = CommercialDataGenerator().transaction()
        assert txn["origin"] in AIRPORTS
        assert txn["destination"] in AIRPORTS
        assert txn["origin"] != txn["destination"]
        assert len(txn["passengers"]) == len(txn["seats"])
        assert 79.0 <= txn["fare"] <= 1450.0

    def test_xml_is_well_formed(self):
        import xml.etree.ElementTree as ET

        block = CommercialDataGenerator().xml_block(16384)
        root = ET.fromstring(block)
        assert root.tag == "operational-information-system"
        assert len(root) > 0

    def test_stream_blocks_exact_size(self):
        blocks = list(CommercialDataGenerator().stream(10000, 5))
        assert len(blocks) == 5
        assert all(len(b) == 10000 for b in blocks)

    def test_stream_is_continuous(self):
        # Two consecutive stream blocks join without duplication.
        gen1 = CommercialDataGenerator(seed=9)
        joined = b"".join(gen1.stream(5000, 4))
        gen2 = CommercialDataGenerator(seed=9)
        single = next(gen2.stream(20000, 1))
        assert joined == single

    def test_compressibility_signature(self):
        """Figure 2 shape: BW < LZ < Huffman, all well away from 0 and 1."""
        block = CommercialDataGenerator().xml_block(128 * 1024)
        bw = get_codec("burrows-wheeler").ratio(block)
        lz = get_codec("lempel-ziv").ratio(block)
        huff = get_codec("huffman").ratio(block)
        assert 0.15 < bw < lz < huff < 0.80


class TestMolecularGenerator:
    def test_deterministic_per_seed(self):
        a = MolecularDataGenerator(256, seed=5).coordinates_block()
        b = MolecularDataGenerator(256, seed=5).coordinates_block()
        assert a == b

    def test_block_sizes(self):
        gen = MolecularDataGenerator(100)
        assert len(gen.coordinates_block()) == 100 * 3 * 8
        assert len(gen.velocities_block()) == 100 * 3 * 4
        assert len(gen.types_block()) == 100 * 4

    def test_positions_stay_in_box(self):
        import numpy as np

        from repro.data.molecular import _BOX

        gen = MolecularDataGenerator(128)
        for _ in range(50):
            gen.advance()
        coords = np.frombuffer(gen.coordinates_block(), dtype="<f8")
        assert np.all(coords >= 0.0) and np.all(coords < _BOX)

    def test_invalid_atom_count(self):
        with pytest.raises(ValueError):
            MolecularDataGenerator(0)

    def test_frame_is_valid_pbio(self):
        gen = MolecularDataGenerator(64)
        fmt, records = decode_records(gen.frame())
        assert fmt == FRAME_FORMAT
        assert len(records) == 1
        assert len(records[0]["coordinates"]) == 64 * 3
        assert len(records[0]["types"]) == 64

    def test_advance_changes_coordinates(self):
        gen = MolecularDataGenerator(64)
        before = gen.coordinates_block()
        gen.advance()
        assert gen.coordinates_block() != before

    def test_types_constant_across_steps(self):
        gen = MolecularDataGenerator(64)
        before = gen.types_block()
        gen.advance()
        assert gen.types_block() == before

    def test_stream_block_sizes(self):
        blocks = list(MolecularDataGenerator(128).stream(4096, 6))
        assert len(blocks) == 6
        assert all(len(b) == 4096 for b in blocks)

    def test_figure6_field_signature(self):
        """Coordinates poor, velocities mid, types excellent (Figure 6)."""
        gen = MolecularDataGenerator(2048)
        huff = get_codec("huffman")
        lz = get_codec("lempel-ziv")
        coords = huff.ratio(gen.coordinates_block())
        velocity = huff.ratio(gen.velocities_block())
        types = lz.ratio(gen.types_block())
        assert coords > 0.80
        assert 0.35 < velocity < coords
        assert types < 0.15

    def test_metadata_blocks_are_repetitive(self):
        """The periodic topology refreshes must trigger dictionary wins."""
        gen = MolecularDataGenerator(2048)
        blocks = list(gen.stream(64 * 1024, 14))
        lz = get_codec("lempel-ziv")
        ratios = [len(lz.compress(b)) / len(b) for b in blocks]
        assert min(ratios) < 0.35  # some block is dominated by type tables
        assert max(ratios) > 0.70  # some block is dominated by coordinates
