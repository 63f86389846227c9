"""Unit tests for parallel compression and parallel Huffman decoding."""

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import bwhuff, parallel
from repro.compression.base import CorruptStreamError
from repro.compression.bwhuff import BurrowsWheelerCodec
from repro.compression.huffman import HuffmanCode, HuffmanCodec
from repro.compression.identity import IdentityCodec
from repro.compression.lz77 import Lz77Codec
from repro.compression.parallel import (
    ParallelCodec,
    chunk_map,
    huffman_segment_table,
    parallel_huffman_decode,
    shutdown_codec_pool,
)
from repro.core.workers import WorkerPool
from tests.strategies import bw_in_process, examples


class TestParallelCodec:
    def codec(self, chunk_size=4096, workers=3):
        return ParallelCodec(Lz77Codec(), chunk_size=chunk_size, workers=workers)

    def test_name_reflects_base(self):
        assert self.codec().name == "parallel:lempel-ziv"

    def test_empty(self):
        codec = self.codec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_chunk(self):
        codec = self.codec()
        data = b"small payload"
        assert codec.decompress(codec.compress(data)) == data

    def test_multi_chunk_roundtrip(self, commercial_block):
        codec = self.codec()
        assert codec.decompress(codec.compress(commercial_block)) == commercial_block

    def test_exact_chunk_boundary(self):
        codec = self.codec(chunk_size=1024)
        data = b"x" * 4096
        assert codec.decompress(codec.compress(data)) == data

    def test_roundtrip_corpus(self, corpus):
        codec = self.codec()
        for name, data in corpus.items():
            assert codec.decompress(codec.compress(data)) == data, name

    def test_ratio_close_to_sequential(self, commercial_block):
        parallel_ratio = self.codec(chunk_size=16384).ratio(commercial_block)
        sequential_ratio = Lz77Codec().ratio(commercial_block)
        # chunking costs some context; the overhead must stay modest
        assert parallel_ratio < sequential_ratio + 0.08

    def test_random_access_chunk(self, commercial_block):
        codec = self.codec(chunk_size=8192)
        payload = codec.compress(commercial_block)
        third_chunk = codec.decompress_chunk(payload, 2)
        assert third_chunk == commercial_block[2 * 8192 : 3 * 8192]

    def test_random_access_out_of_range(self):
        codec = self.codec()
        payload = codec.compress(b"abc")
        with pytest.raises(IndexError):
            codec.decompress_chunk(payload, 5)

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptStreamError):
            self.codec().decompress(b"XXXX\x00")

    def test_truncated_container_rejected(self):
        payload = self.codec().compress(b"hello world " * 500)
        with pytest.raises(CorruptStreamError):
            self.codec().decompress(payload[:-4])

    def test_trailing_garbage_rejected(self):
        payload = self.codec().compress(b"hello world " * 50)
        with pytest.raises(CorruptStreamError):
            self.codec().decompress(payload + b"!")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ParallelCodec(IdentityCodec(), chunk_size=100)
        with pytest.raises(ValueError):
            ParallelCodec(IdentityCodec(), workers=0)

    def test_works_with_any_base(self, lowentropy_block):
        for base in (IdentityCodec(), HuffmanCodec()):
            codec = ParallelCodec(base, chunk_size=4096)
            assert codec.decompress(codec.compress(lowentropy_block)) == lowentropy_block

    @given(st.binary(max_size=20000))
    @examples(30)
    def test_roundtrip_property(self, data):
        codec = ParallelCodec(Lz77Codec(), chunk_size=2048, workers=2)
        assert codec.decompress(codec.compress(data)) == data


def _encode(symbols, alphabet=256):
    code = HuffmanCode.from_symbols(symbols, alphabet)
    bits = code.encode_bitstring(symbols)
    padding = (-len(bits)) % 8
    data = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big")
    return code, data


class TestParallelHuffmanDecode:
    def _skewed_symbols(self, n=30000):
        return ([0] * 8 + [1] * 4 + [2] * 2 + [3]) * (n // 15)

    def test_matches_sequential(self):
        symbols = self._skewed_symbols()
        code, data = _encode(symbols, 4)
        decoded = parallel_huffman_decode(code, data, len(symbols), segments=5)
        assert decoded == symbols

    def test_single_segment_degenerates_to_sequential(self):
        symbols = self._skewed_symbols(3000)
        code, data = _encode(symbols, 4)
        assert parallel_huffman_decode(code, data, len(symbols), segments=1) == symbols

    @pytest.mark.parametrize("segments", [2, 3, 4, 8, 16])
    def test_various_segment_counts(self, segments):
        symbols = self._skewed_symbols(12000)
        code, data = _encode(symbols, 4)
        assert (
            parallel_huffman_decode(code, data, len(symbols), segments=segments)
            == symbols
        )

    def test_more_segments_than_bytes(self):
        symbols = [0, 1, 0, 0, 1]
        code, data = _encode(symbols, 2)
        assert parallel_huffman_decode(code, data, len(symbols), segments=64) == symbols

    def test_real_text(self, commercial_block):
        symbols = list(commercial_block[:40000])
        code, data = _encode(symbols)
        assert parallel_huffman_decode(code, data, len(symbols), segments=6) == symbols

    def test_zero_symbols(self):
        code, data = _encode([0, 1], 2)
        assert parallel_huffman_decode(code, data, 0) == []

    def test_count_beyond_stream_raises(self):
        symbols = [0, 1] * 50
        code, data = _encode(symbols, 2)
        with pytest.raises(CorruptStreamError):
            parallel_huffman_decode(code, data, 10**6, segments=3)

    def test_invalid_segments(self):
        code, data = _encode([0, 1], 2)
        with pytest.raises(ValueError):
            parallel_huffman_decode(code, data, 2, segments=0)

    def test_segment_table_spillover_lands_on_boundary(self):
        symbols = self._skewed_symbols(4000)
        code, data = _encode(symbols, 4)
        boundaries, decoded, final_bit = huffman_segment_table(code, data, 0, 100)
        assert boundaries[0] == 0
        assert final_bit >= 100
        assert len(decoded) == len(boundaries)

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=4000))
    @examples(25)
    def test_roundtrip_property(self, symbols):
        code, data = _encode(symbols)
        decoded = parallel_huffman_decode(code, data, len(symbols), segments=4)
        assert decoded == symbols


class TestParallelHuffmanEdgeCases:
    """Degenerate streams: empty input, single-segment, and speculation
    that never synchronizes (forcing the sequential re-decode path)."""

    def test_empty_input_zero_symbols(self):
        code, _ = _encode([0, 1], 2)
        assert parallel_huffman_decode(code, b"", 0) == []
        assert parallel_huffman_decode(code, b"", 0, segments=8) == []

    def test_empty_input_with_symbols_expected_raises(self):
        code, _ = _encode([0, 1], 2)
        with pytest.raises(CorruptStreamError):
            parallel_huffman_decode(code, b"", 1, segments=4)

    def test_stream_shorter_than_one_segment(self):
        # 3 one-bit symbols fit in a single byte, so even segments=4
        # collapses to a single speculative segment.
        symbols = [0, 1, 0]
        code, data = _encode(symbols, 2)
        assert len(data) == 1
        assert parallel_huffman_decode(code, data, len(symbols), segments=4) == symbols

    def _fixed_length_code(self):
        """A 32-symbol uniform alphabet yields 5-bit fixed-length codes.

        Fixed-length codes never self-synchronize: a speculative decode
        entering at a byte boundary that is not a multiple of the code
        length stays mis-aligned forever, so stitching must fall back to
        the sequential re-decode path for the whole segment.
        """
        symbols = list(range(32)) * 126  # uniform frequencies -> balanced tree
        code = HuffmanCode.from_symbols(symbols, 32)
        for symbol in range(32):
            assert len(code.encode_bitstring([symbol])) == 5
        return code

    def test_never_synchronizing_speculation_is_discarded(self):
        code = self._fixed_length_code()
        symbols = [(i * 7) % 32 for i in range(4001)]
        bits = code.encode_bitstring(symbols)
        padding = (-len(bits)) % 8
        data = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big")

        # A segment starting at bit 5008 (byte 626, != 0 mod 5) speculates
        # boundaries all congruent to 3 mod 5 — never a true boundary.
        boundaries, _, _ = huffman_segment_table(code, data, 5008, 5008 + 400)
        assert boundaries
        assert all(bit % 5 == 3 for bit in boundaries)

        # 4001 symbols * 5 bits pad to 2501 bytes, making every interior
        # segment start land off the 5-bit grid; the decode must still be
        # exact via sequential re-decode of the unsynchronized segments.
        total_bits = len(data) * 8
        span = ((total_bits // 4) + 7) & ~7
        starts = [index * span for index in range(1, 4) if index * span < total_bits]
        assert starts, "expected interior segment starts"
        assert all(start % 5 != 0 for start in starts)
        decoded = parallel_huffman_decode(code, data, len(symbols), segments=4)
        assert decoded == symbols

    @pytest.mark.parametrize("segments", [2, 3, 8])
    def test_never_synchronizing_various_segment_counts(self, segments):
        code = self._fixed_length_code()
        symbols = [(i * 11) % 32 for i in range(1603)]
        bits = code.encode_bitstring(symbols)
        padding = (-len(bits)) % 8
        data = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big")
        decoded = parallel_huffman_decode(code, data, len(symbols), segments=segments)
        assert decoded == symbols


class TestPoolStrategies:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            ParallelCodec(Lz77Codec(), strategy="green-threads")

    @pytest.mark.parametrize("strategy", ["threads", "processes", "serial"])
    def test_wire_bytes_identical_across_strategies(self, strategy, corpus):
        data = corpus["commercial"][: 96 * 1024]
        reference = ParallelCodec(Lz77Codec(), strategy="serial").compress(data)
        codec = ParallelCodec(Lz77Codec(), strategy=strategy)
        payload = codec.compress(data)
        assert payload == reference
        assert codec.decompress(payload) == data

    def test_process_strategy_decompresses_serial_payload(self, corpus):
        data = corpus["lowentropy"][: 64 * 1024]
        payload = ParallelCodec(Lz77Codec(), strategy="serial").compress(data)
        assert ParallelCodec(Lz77Codec(), strategy="processes").decompress(payload) == data

    def test_broken_pool_degrades_to_serial(self, corpus):
        data = corpus["commercial"][: 64 * 1024]
        reference = ParallelCodec(Lz77Codec(), strategy="serial").compress(data)
        codec = ParallelCodec(Lz77Codec(), strategy="processes")
        codec._make_executor = lambda: (_ for _ in ()).throw(OSError("fork failed"))
        assert codec.compress(data) == reference
        assert codec.strategy == "serial"
        assert codec.degradations == 1
        # Degraded codec keeps working without a pool.
        assert codec.decompress(reference) == data


# --------------------------------------------------------------------------
# The shared codec pool behind burrows-wheeler's chunk stages
# --------------------------------------------------------------------------

needs_two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="one core: there is no codec pool"
)


@pytest.fixture
def fresh_codec_pool():
    """Each test starts (and leaves) the process with no codec pool."""
    shutdown_codec_pool()
    yield
    shutdown_codec_pool()


def _pid_of(_item):
    return os.getpid()


def _die_in_worker(chunk):
    """``_encode_chunk``, except that it kills any pool worker running it."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _ENCODE_CHUNK(chunk)


_ENCODE_CHUNK = bwhuff._encode_chunk


def _bw_in_worker(data):
    """Compress inside a WorkerPool process; report what the call forked."""
    payload = BurrowsWheelerCodec(chunk_size=2048).compress(data)
    return payload, len(multiprocessing.active_children()), parallel._codec_pool is None


class _WorkerShareError(ValueError):
    """Raised by :func:`_fail_on_odd` for the items a worker's share holds."""


def _fail_on_odd(item):
    if item % 2:
        raise _WorkerShareError(item)
    return item


def _four_chunks():
    rng = random.Random(32)
    return bytes(rng.choices(b"abcdefgh", k=4 * 2048))


@needs_two_cores
class TestCodecPool:
    def test_caller_takes_every_strideth_item_and_workers_the_rest(self, fresh_codec_pool):
        pids = chunk_map(_pid_of, list(range(7)))
        stride = os.cpu_count()  # the caller and cpu_count() - 1 workers
        assert pids[0::stride] == [os.getpid()] * len(pids[0::stride])
        worker_pids = [pid for index, pid in enumerate(pids) if index % stride]
        assert worker_pids and os.getpid() not in worker_pids
        assert chunk_map(_pid_of, [0]) == [os.getpid()]
        assert chunk_map(_pid_of, []) == []

    def test_share_that_does_not_pickle_reruns_in_the_caller(self, fresh_codec_pool):
        class LocalCodec(Lz77Codec):  # defined here, so it cannot be pickled
            pass

        chunks = [bytes([65 + i]) * 3000 + bytes(range(200)) for i in range(5)]
        compress = partial(parallel._apply_codec, LocalCodec(), "compress")
        assert chunk_map(compress, chunks) == [Lz77Codec().compress(c) for c in chunks]
        # Nothing broke: the pool keeps running its shares in the worker.
        pool = parallel._codec_pool
        assert (pool.mode, pool.degradations) == ("processes", 0)
        assert os.getpid() not in chunk_map(_pid_of, list(range(4)))[1::2]

    def test_error_fn_raises_surfaces_once_from_the_caller(self, fresh_codec_pool):
        # Odd items fall in the worker's share (stride 2 on two cores) or,
        # on a wider host, in some worker's.
        with pytest.raises(_WorkerShareError) as caught:
            chunk_map(_fail_on_odd, list(range(6)))
        error = caught.value
        assert type(error) is _WorkerShareError
        # Raised by the caller's re-run, not chained to the worker's copy.
        assert (error.__cause__, error.__context__) == (None, None)
        assert error.args == (1,)
        pool = parallel._codec_pool
        assert (pool.mode, pool.degradations) == ("processes", 0)

    def test_worker_killed_mid_call_degrades_once_to_serial(self, fresh_codec_pool, monkeypatch):
        codec = BurrowsWheelerCodec(chunk_size=2048)
        data = _four_chunks()
        reference = bw_in_process(codec, data)
        monkeypatch.setattr(bwhuff, "_encode_chunk", _die_in_worker)
        assert codec.compress(data) == reference
        pool = parallel._codec_pool
        assert (pool.mode, pool.degradations) == ("serial", 1)
        # Serial for the rest of the process: no executor, same bytes.
        assert codec.compress(data) == reference
        assert codec.decompress(reference) == data
        assert (pool.mode, pool.degradations, pool._executor) == ("serial", 1, None)
        assert parallel._codec_pool is pool

    def test_inside_a_pool_worker_runs_serially(self, fresh_codec_pool):
        data = _four_chunks()
        codec = BurrowsWheelerCodec(chunk_size=2048)
        reference = codec.compress(data)  # starts this process's codec pool
        assert parallel._codec_pool is not None
        with WorkerPool(workers=1, mode="processes") as pool:
            payload, children, no_pool = pool.submit_call(_bw_in_worker, data).result(timeout=60)
        assert payload == reference
        assert children == 0  # no grandchild was forked
        assert no_pool  # the parent's pool did not follow the fork

    def test_two_first_calls_start_one_executor(self, fresh_codec_pool, monkeypatch):
        spawned = []
        spawn = parallel._pool_executor

        def counting_spawn(mode, workers):
            spawned.append((mode, workers))
            return spawn(mode, workers)

        monkeypatch.setattr(parallel, "_pool_executor", counting_spawn)
        codec = BurrowsWheelerCodec(chunk_size=2048)
        data = _four_chunks()
        barrier = threading.Barrier(2)
        payloads = []

        def first_call():
            barrier.wait()
            payloads.append(codec.compress(data))

        threads = [threading.Thread(target=first_call) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert spawned == [("processes", (os.cpu_count() or 1) - 1)]
        assert payloads == [bw_in_process(codec, data)] * 2

    def test_interpreter_exit_after_pool_use_is_silent(self):
        script = (
            "from repro.compression import parallel\n"
            "from repro.compression.bwhuff import BurrowsWheelerCodec\n"
            "data = bytes(range(256)) * 512\n"
            "codec = BurrowsWheelerCodec()\n"
            "assert codec.decompress(codec.compress(data)) == data\n"
            "assert parallel._codec_pool._executor is not None\n"
        )
        package = os.path.dirname(os.path.dirname(parallel.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stderr) == (0, "")
