"""Unit tests for the unified execution substrate (repro.core.engine)."""

from dataclasses import replace

import pytest

from repro.compression.base import Codec, CodecError
from repro.compression.registry import get_codec
from repro.core.engine import (
    DEFAULT_BLOCK_SIZE,
    BlockEngine,
    CodecExecutor,
    cut_blocks,
    timed,
)
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, ULTRA_SPARC, CpuModel


class TestMeasurePrimitives:
    def test_measure_times_a_real_run(self, commercial_block):
        payload, seconds = timed(get_codec("huffman").compress, commercial_block)
        assert 0 < len(payload) < len(commercial_block)
        assert seconds >= 0

    def test_timed_decompress_round_trips(self, commercial_block):
        codec = get_codec("huffman")
        data, seconds = timed(codec.decompress, codec.compress(commercial_block))
        assert data == commercial_block
        assert seconds >= 0


class TestCodecExecutorModes:
    def test_measured_mode_reports_wall_clock(self, commercial_block):
        execution = CodecExecutor().compress("lempel-ziv", commercial_block)
        assert execution.method == "lempel-ziv"
        assert execution.compression_seconds > 0
        assert execution.compressed_size < len(commercial_block)

    def test_cpu_scaled_mode_slows_by_factor(self, commercial_block):
        # A half-speed CPU must report a strictly larger time than the
        # modeled reference for the same (deterministic) cost table.
        fast = CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
        slow = CodecExecutor(cost_model=DEFAULT_COSTS, cpu=ULTRA_SPARC)
        t_fast = fast.compress("huffman", commercial_block).compression_seconds
        t_slow = slow.compress("huffman", commercial_block).compression_seconds
        assert t_slow == pytest.approx(
            t_fast * SUN_FIRE.speed_factor / ULTRA_SPARC.speed_factor
        )

    def test_modeled_mode_is_deterministic(self, commercial_block):
        executor = CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
        first = executor.compress("burrows-wheeler", commercial_block)
        second = executor.compress("burrows-wheeler", commercial_block)
        assert first.compression_seconds == second.compression_seconds
        assert first.compression_seconds == DEFAULT_COSTS.compression_time(
            "burrows-wheeler", len(commercial_block), SUN_FIRE
        )
        # Sizes are still real codec output, not modeled.
        assert first.payload == second.payload

    def test_modeled_decompression_time_skips_the_codec(self, commercial_block):
        executor = CodecExecutor(cost_model=DEFAULT_COSTS)
        expected = DEFAULT_COSTS.decompression_time("huffman", len(commercial_block))
        got = executor.decompression_time(
            "huffman", len(commercial_block), b"not even a valid payload"
        )
        assert got == expected

    def test_unknown_codec_in_cost_model_raises_without_fallback(self, commercial_block):
        executor = CodecExecutor(cost_model=DEFAULT_COSTS)
        with pytest.raises(KeyError):
            executor.compress("lzw", commercial_block)

    def test_none_shortcut_is_free_and_identity(self, commercial_block):
        execution = CodecExecutor().compress("none", commercial_block)
        assert execution.method == "none"
        assert execution.payload == commercial_block
        assert execution.compression_seconds == 0.0
        assert CodecExecutor().decompression_time("none", 1024, b"") == 0.0


class TestExpansionGuard:
    def test_incompressible_block_falls_back_to_none(self, random_block):
        executor = CodecExecutor(expansion_fallback=True)
        execution = executor.compress("huffman", random_block)
        assert execution.fell_back
        assert execution.method == "none"
        assert execution.requested_method == "huffman"
        assert execution.payload == random_block
        assert execution.ratio == 1.0

    def test_compressible_block_does_not_fall_back(self, commercial_block):
        execution = CodecExecutor(expansion_fallback=True).compress(
            "huffman", commercial_block
        )
        assert not execution.fell_back
        assert execution.method == "huffman"

    def test_guard_off_ships_the_expansion(self, random_block):
        execution = CodecExecutor().compress("huffman", random_block)
        assert execution.method == "huffman"
        assert execution.compressed_size >= len(random_block)


class TestVerify:
    def test_verify_raises_on_corrupting_codec(self, commercial_block):
        class LyingCodec(Codec):
            name = "liar"

            def compress(self, data: bytes) -> bytes:
                return data[: len(data) // 2]

            def decompress(self, payload: bytes) -> bytes:
                return payload

        with pytest.raises(CodecError):
            CodecExecutor().measure_roundtrip("liar", commercial_block, codec=LyingCodec())

    def test_measure_roundtrip_checks_and_times_both_directions(self, commercial_block):
        run = CodecExecutor().measure_roundtrip("huffman", commercial_block)
        assert run.compressed_size < len(commercial_block)
        assert run.compression_seconds > 0 and run.decompression_seconds > 0


class TestCutBlocks:
    def test_exact_multiple(self):
        blocks = list(cut_blocks(b"x" * 4096, 1024))
        assert [len(b) for b in blocks] == [1024] * 4

    def test_short_tail(self):
        blocks = list(cut_blocks(b"x" * 2500, 1024))
        assert [len(b) for b in blocks] == [1024, 1024, 452]

    def test_empty_input_yields_nothing(self):
        assert list(cut_blocks(b"", 1024)) == []

    def test_chunk_iterable_reassembled(self):
        chunks = [b"a" * 700, b"b" * 700, b"c" * 700]
        blocks = list(cut_blocks(chunks, 1024))
        assert b"".join(blocks) == b"".join(chunks)
        assert [len(b) for b in blocks] == [1024, 1024, 52]

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            list(cut_blocks(b"x", 0))


class TestBlockEngine:
    def test_default_block_size_is_the_papers(self):
        assert DEFAULT_BLOCK_SIZE == 128 * 1024
        assert BlockEngine().block_size == DEFAULT_BLOCK_SIZE

    def test_tiny_block_size_rejected(self):
        with pytest.raises(ValueError):
            BlockEngine(block_size=512)

    def test_run_with_fixed_method(self, commercial_block):
        engine = BlockEngine(block_size=16 * 1024)
        results = engine.run(commercial_block, method="huffman")
        assert len(results) == -(-len(commercial_block) // (16 * 1024))
        assert all(stats.method == "huffman" for _, stats in results)
        assert sum(stats.original_size for _, stats in results) == len(commercial_block)
        restored = b"".join(
            get_codec(stats.method).decompress(payload) for payload, stats in results
        )
        assert restored == commercial_block

    def test_observers_receive_stats_and_detach(self, commercial_block):
        engine = BlockEngine(block_size=32 * 1024)
        seen = []
        detach = engine.add_observer(seen.append)
        engine.execute(commercial_block[: 32 * 1024], method="huffman")
        assert len(seen) == 1
        assert seen[0].index == 0
        assert seen[0].method == "huffman"
        assert seen[0].decompression_seconds > 0
        detach()
        engine.execute(commercial_block[: 32 * 1024], method="huffman")
        assert len(seen) == 1

    @pytest.mark.parametrize("method", ["none", "huffman"])
    def test_emitted_stats_are_the_execution_indexed_priced_and_payload_free(
        self, commercial_block, method
    ):
        """``emit`` builds its record field by field: it must be the
        ``replace`` copy it stands for, whatever fields ``BlockStats`` gains."""
        executor = CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
        block = commercial_block[: 32 * 1024]
        execution = executor.compress(method, block)
        payload, stats = BlockEngine(executor=executor, block_size=32 * 1024).emit(execution, 7)
        assert payload is execution.payload
        assert stats == replace(
            execution,
            index=7,
            decompression_seconds=executor.decompression_time(method, len(block), payload),
            payload=None,
        )

    def test_engine_with_modeled_executor_is_deterministic(self, commercial_block):
        executor = CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
        engine = BlockEngine(executor=executor, block_size=16 * 1024)
        first = engine.run(commercial_block, method="lempel-ziv")
        second = engine.run(commercial_block, method="lempel-ziv")
        assert [s.compression_seconds for _, s in first] == [
            s.compression_seconds for _, s in second
        ]
        assert [s.compressed_size for _, s in first] == [
            s.compressed_size for _, s in second
        ]
