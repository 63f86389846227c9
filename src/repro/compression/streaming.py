"""Framed streaming compression over any block codec.

The paper's pipeline consumes a *stream* cut into 128 KB blocks (§2.5).
This module packages that pattern as a reusable incremental API, so
applications can push bytes of any granularity and pull framed compressed
output — without holding the whole stream in memory:

* :class:`StreamingCompressor` — ``write(data)`` buffers until a full
  block is available, emits one self-delimiting frame per block;
  ``flush()`` frames the partial tail.
* :class:`StreamingDecompressor` — feed arbitrary byte chunks of the
  framed stream; decoded data comes out as it completes.  Framing is
  self-describing, so the decompressor needs no out-of-band state, and
  buffering is bounded by ``max_frame_size`` (a corrupt or hostile
  header cannot make the decoder buffer indefinitely).

Frames are the shared :mod:`repro.compression.framing` layout with the
codec method name as the header, so any framing-aware peer (including
the TCP transport's parser) can recover them.
"""

from __future__ import annotations

from .base import CodecError, CorruptStreamError
from .framing import (
    DEFAULT_MAX_FRAME_SIZE,
    MAX_METHOD_NAME,
    FrameDecoder,
    encode_block_frame,
)
from .registry import get_codec

__all__ = ["StreamingCompressor", "StreamingDecompressor", "DEFAULT_STREAM_BLOCK"]

DEFAULT_STREAM_BLOCK = 128 * 1024


class StreamingCompressor:
    """Incremental compressor emitting self-delimiting frames."""

    def __init__(
        self,
        method: str = "lempel-ziv",
        block_size: int = DEFAULT_STREAM_BLOCK,
    ) -> None:
        if block_size < 1024:
            raise ValueError("block_size must be at least 1 KB")
        get_codec(method)  # validate eagerly
        self.method = method
        self.block_size = block_size
        self._pending = bytearray()
        self._finished = False
        self.frames_emitted = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def write(self, data: bytes) -> bytes:
        """Accept input; returns any complete frames produced."""
        if self._finished:
            raise ValueError("compressor already flushed")
        self._pending += data
        self.bytes_in += len(data)
        out = bytearray()
        while len(self._pending) >= self.block_size:
            block = bytes(self._pending[: self.block_size])
            del self._pending[: self.block_size]
            out += self._frame(block)
        self.bytes_out += len(out)
        return bytes(out)

    def flush(self) -> bytes:
        """Frame the partial tail and close the stream."""
        if self._finished:
            return b""
        self._finished = True
        if not self._pending:
            return b""
        block = bytes(self._pending)
        self._pending.clear()
        frame = self._frame(block)
        self.bytes_out += len(frame)
        return frame

    def _frame(self, block: bytes) -> bytes:
        payload = get_codec(self.method).compress(block)
        self.frames_emitted += 1
        return encode_block_frame(self.method, payload)

    @property
    def ratio(self) -> float:
        """Compressed/original bytes so far (framing overhead included)."""
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_out / self.bytes_in


class StreamingDecompressor:
    """Incremental decoder for :class:`StreamingCompressor` output."""

    def __init__(self, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> None:
        self._decoder = FrameDecoder(
            max_frame_size=max_frame_size, max_header_size=MAX_METHOD_NAME
        )
        self.frames_decoded = 0

    def write(self, data: bytes) -> bytes:
        """Accept framed bytes; returns all newly completed plaintext.

        Raises :class:`~repro.compression.base.CorruptStreamError` when
        the stream cannot be valid framing — including a declared frame
        size beyond ``max_frame_size``.
        """
        out = bytearray()
        for frame in self._decoder.feed(data):
            try:
                codec = get_codec(frame.method)
            except CodecError as exc:
                # A method name the registry has never heard of can only
                # come from a corrupted header, so report it as stream
                # corruption rather than a configuration error.
                raise CorruptStreamError(str(exc)) from exc
            out += codec.decompress(frame.payload)
            self.frames_decoded += 1
        return bytes(out)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return self._decoder.pending_bytes

    def close(self) -> None:
        """Assert the stream ended cleanly at a frame boundary."""
        self._decoder.close()
