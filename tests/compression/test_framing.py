"""Unit tests for the shared wire framing (repro.compression.framing).

The module is THE frame parser for the tree: block streaming, the event
transport's WireFormat and the TCP channel server all speak this layout,
so these tests cover both the codec-carrying use (method-name headers
across every registered codec) and the hostile-input bounds.
"""

import socket

import pytest

from repro.compression.base import CorruptStreamError
from repro.compression.framing import (
    DEFAULT_MAX_FRAME_SIZE,
    FLAG_CRC32,
    FRAME_V2_MAGIC,
    JUMBO_HEADER,
    MAX_METHOD_NAME,
    Frame,
    FrameDecoder,
    decode_frame,
    encode_block_frame,
    encode_frame,
    encode_frame_into,
    encode_frame_parts,
    encode_jumbo_frame,
    is_jumbo_frame,
    parse_frame,
    unpack_jumbo_frame,
)
from repro.compression.registry import available_codecs, get_codec
from repro.compression.streaming import StreamingCompressor
from repro.middleware.tcp import FrameReader


class TestFrameRoundTrip:
    def test_empty_header_and_payload(self):
        wire = encode_frame(b"", b"")
        frame, offset = decode_frame(wire)
        assert frame == Frame(header=b"", payload=b"")
        assert offset == len(wire)
        assert frame.wire_size == len(wire)

    def test_header_and_payload_recovered(self):
        wire = encode_frame(b'{"k": 1}', b"\x00\xffpayload")
        frame, offset = decode_frame(wire)
        assert frame.header == b'{"k": 1}'
        assert frame.payload == b"\x00\xffpayload"
        assert offset == len(wire)

    def test_wire_size_matches_encoding(self):
        for header, payload in [
            (b"", b""),
            (b"h", b"x" * 127),
            (b"hh", b"x" * 128),
            (b"hdr" * 50, b"y" * 20000),
        ]:
            frame, _ = decode_frame(encode_frame(header, payload))
            assert frame.wire_size == len(encode_frame(header, payload))

    def test_back_to_back_frames_with_offsets(self):
        wire = encode_frame(b"a", b"1") + encode_frame(b"b", b"22")
        first, offset = decode_frame(wire)
        second, end = decode_frame(wire, offset)
        assert (first.header, second.header) == (b"a", b"b")
        assert (first.payload, second.payload) == (b"1", b"22")
        assert end == len(wire)

    def test_method_round_trips_for_every_registered_codec(self):
        for name in available_codecs():
            frame, _ = decode_frame(encode_block_frame(name, b"payload"))
            assert frame.method == name

    def test_data_round_trips_through_every_lossless_codec(self, commercial_block):
        data = commercial_block[:8192]
        for name in available_codecs():
            codec = get_codec(name)
            frame, _ = decode_frame(encode_block_frame(name, codec.compress(data)))
            assert get_codec(frame.method).decompress(frame.payload) == data

    def test_unframeable_method_names_rejected(self):
        with pytest.raises(ValueError):
            encode_block_frame("", b"x")
        with pytest.raises(ValueError):
            encode_block_frame("m" * (MAX_METHOD_NAME + 1), b"x")
        with pytest.raises(ValueError):
            encode_block_frame("méthode", b"x")


class TestFrameMethodHeader:
    def test_empty_header_is_not_a_method(self):
        with pytest.raises(CorruptStreamError):
            Frame(header=b"", payload=b"").method

    def test_oversized_header_is_not_a_method(self):
        with pytest.raises(CorruptStreamError):
            Frame(header=b"m" * (MAX_METHOD_NAME + 1), payload=b"").method

    def test_non_ascii_header_is_not_a_method(self):
        with pytest.raises(CorruptStreamError):
            Frame(header=b"\xff\xfe", payload=b"").method


class TestParseFrame:
    def test_incomplete_prefixes_return_none(self):
        wire = encode_frame(b"header", b"payload-bytes")
        for cut in range(len(wire)):
            assert parse_frame(wire[:cut]) is None

    def test_decode_frame_raises_on_truncation(self):
        wire = encode_frame(b"header", b"payload")
        with pytest.raises(CorruptStreamError):
            decode_frame(wire[:-1])

    def test_malformed_varint_raises(self):
        with pytest.raises(CorruptStreamError):
            parse_frame(b"\xff" * 12)

    def test_declared_header_beyond_limit_raises(self):
        wire = encode_frame(b"h" * 100, b"")
        with pytest.raises(CorruptStreamError):
            parse_frame(wire, max_header_size=10)

    def test_declared_payload_beyond_limit_raises(self):
        wire = encode_frame(b"h", b"p" * 100)
        with pytest.raises(CorruptStreamError):
            parse_frame(wire, max_frame_size=10)

    def test_hostile_length_raises_before_payload_arrives(self):
        # Only the *declared* length is present — the decoder must refuse
        # instead of waiting for (and buffering toward) 2**40 bytes.
        from repro.compression.varint import write_varint

        hostile = bytearray()
        write_varint(hostile, 4)
        hostile += b"name"
        write_varint(hostile, 2**40)
        with pytest.raises(CorruptStreamError):
            parse_frame(bytes(hostile))


class TestCheckedFrames:
    """The v2 integrity envelope: magic, flags, CRC32."""

    def test_default_encoding_is_v2(self):
        wire = encode_frame(b"hdr", b"payload")
        assert wire[: len(FRAME_V2_MAGIC)] == FRAME_V2_MAGIC
        frame, offset = decode_frame(wire)
        assert frame.checked
        assert offset == len(wire) == frame.wire_size

    def test_legacy_encoding_still_parses(self):
        wire = encode_frame(b"hdr", b"payload", check=False)
        assert wire[:1] != FRAME_V2_MAGIC[:1]
        frame, _ = decode_frame(wire)
        assert not frame.checked
        assert (frame.header, frame.payload) == (b"hdr", b"payload")

    def test_checked_excluded_from_equality(self):
        checked, _ = decode_frame(encode_frame(b"h", b"p"))
        legacy, _ = decode_frame(encode_frame(b"h", b"p", check=False))
        assert checked == legacy

    def test_single_corrupt_byte_anywhere_is_rejected(self):
        wire = encode_frame(b"method", b"payload bytes")
        # Flip one bit in every position past the envelope prefix; each
        # must either fail the CRC or corrupt the structure — never
        # decode silently into different bytes.
        prefix = len(FRAME_V2_MAGIC) + 1  # magic + flags varint
        for position in range(prefix, len(wire)):
            damaged = bytearray(wire)
            damaged[position] ^= 0xFF
            with pytest.raises(CorruptStreamError):
                decode_frame(bytes(damaged))

    def test_unknown_flags_rejected(self):
        wire = bytearray(encode_frame(b"h", b"p"))
        wire[len(FRAME_V2_MAGIC)] = FLAG_CRC32 | 0x02
        with pytest.raises(CorruptStreamError, match="unknown frame flags"):
            parse_frame(bytes(wire))

    def test_incomplete_v2_prefixes_return_none(self):
        wire = encode_frame(b"header", b"payload-bytes")
        for cut in range(len(wire)):  # includes lone 0x80 and missing CRC tail
            assert parse_frame(wire[:cut]) is None

    def test_v1_and_v2_interleave_in_one_stream(self):
        wire = (
            encode_frame(b"a", b"1")
            + encode_frame(b"b", b"22", check=False)
            + encode_block_frame("huffman", b"333")
        )
        frames = FrameDecoder().feed(wire)
        assert [f.payload for f in frames] == [b"1", b"22", b"333"]
        assert [f.checked for f in frames] == [True, False, True]

    def test_decoder_counts_rejected_frames(self):
        damaged = bytearray(encode_frame(b"h", b"payload"))
        damaged[-1] ^= 0xFF  # break the CRC
        decoder = FrameDecoder()
        with pytest.raises(CorruptStreamError):
            decoder.feed(bytes(damaged))
        assert decoder.frames_rejected == 1

    def test_overlong_varint_length_rejected(self):
        # \x81\x00 is a non-canonical two-byte encoding of 1.
        with pytest.raises(CorruptStreamError, match="non-canonical"):
            parse_frame(b"\x81\x00" + b"h" + b"\x01" + b"p")


class TestFrameDecoder:
    def test_byte_at_a_time_feed(self):
        wire = encode_frame(b"hdr", b"payload one") + encode_frame(b"", b"two")
        decoder = FrameDecoder()
        frames = []
        for i in range(len(wire)):
            frames += decoder.feed(wire[i : i + 1])
        assert [f.payload for f in frames] == [b"payload one", b"two"]
        assert decoder.pending_bytes == 0
        decoder.close()

    def test_multiple_frames_in_one_chunk(self):
        wire = b"".join(encode_frame(b"h", bytes([i])) for i in range(5))
        frames = FrameDecoder().feed(wire)
        assert [f.payload for f in frames] == [bytes([i]) for i in range(5)]

    def test_close_mid_frame_raises(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"h", b"payload")[:-2])
        assert decoder.pending_bytes > 0
        with pytest.raises(CorruptStreamError):
            decoder.close()

    def test_default_limit_is_16_mib(self):
        assert DEFAULT_MAX_FRAME_SIZE == 16 * 1024 * 1024
        assert FrameDecoder().max_frame_size == DEFAULT_MAX_FRAME_SIZE

    def test_oversized_declared_payload_raises_on_feed(self):
        decoder = FrameDecoder(max_frame_size=1024)
        with pytest.raises(CorruptStreamError):
            decoder.feed(encode_frame(b"h", b"x" * 2048)[:20])


class TestTransportInterop:
    def test_streaming_output_decodes_through_tcp_frame_reader(self):
        """A StreamingCompressor stream is parseable by the TCP-path reader."""
        original = b"interop between streaming and tcp framing " * 3000
        compressor = StreamingCompressor(method="lempel-ziv", block_size=32 * 1024)
        wire = compressor.write(original) + compressor.flush()

        left, right = socket.socketpair()
        try:
            left.sendall(wire)
            left.shutdown(socket.SHUT_WR)
            reader = FrameReader(right)
            restored = bytearray()
            frames = 0
            while True:
                frame = reader.next_frame()
                if frame is None:
                    break
                restored += get_codec(frame.method).decompress(frame.payload)
                frames += 1
        finally:
            left.close()
            right.close()
        assert bytes(restored) == original
        assert frames == compressor.frames_emitted


class TestZeroCopyParsing:
    """parse_frame returns lazy views by default; copy= is the escape hatch."""

    def test_default_parse_returns_readonly_views(self):
        wire = encode_frame(b"header", b"payload")
        frame, _ = decode_frame(wire)
        assert isinstance(frame.header, memoryview) and frame.header.readonly
        assert isinstance(frame.payload, memoryview) and frame.payload.readonly
        assert frame.header == b"header"
        assert frame.payload == b"payload"

    def test_views_alias_the_input_buffer(self):
        payload = bytes(range(256)) * 16
        wire = bytes(encode_frame(b"h", payload, check=False))
        frame, _ = decode_frame(wire)
        # Same memory, not a copy: mutating a writable input would show
        # through, so prove aliasing structurally instead.
        assert frame.payload.obj is wire
        assert frame.payload.nbytes == len(payload)

    def test_copy_true_returns_owned_bytes(self):
        wire = encode_frame(b"header", b"payload")
        frame, _ = decode_frame(wire, copy=True)
        assert isinstance(frame.header, bytes)
        assert isinstance(frame.payload, bytes)
        assert (frame.header, frame.payload) == (b"header", b"payload")

    def test_materialization_properties(self):
        frame, _ = decode_frame(encode_frame(b"hdr", b"pay"))
        assert isinstance(frame.header_bytes, bytes)
        assert isinstance(frame.payload_bytes, bytes)
        assert frame.header_bytes == b"hdr"
        assert frame.payload_bytes == b"pay"
        # Already-owned bytes pass through without another copy.
        owned = Frame(header=b"h", payload=b"p")
        assert owned.header_bytes is owned.header
        assert owned.payload_bytes is owned.payload

    def test_view_backed_frames_compare_equal_to_owned(self):
        wire = encode_frame(b"h", b"p")
        lazy, _ = decode_frame(wire)
        owned, _ = decode_frame(wire, copy=True)
        assert lazy == owned

    def test_decoder_views_survive_subsequent_feeds(self):
        # Frames from feed N must stay valid after feed N+1 (the decoder
        # never compacts a buffer live frames still view).
        decoder = FrameDecoder()
        first = decoder.feed(bytes(encode_frame(b"a", b"one")))
        second = decoder.feed(bytes(encode_frame(b"b", b"two")))
        assert first[0].payload == b"one"
        assert second[0].payload == b"two"

    def test_decoder_copy_mode_returns_owned_bytes(self):
        frames = FrameDecoder(copy=True).feed(bytes(encode_frame(b"h", b"p")))
        assert isinstance(frames[0].payload, bytes)

    def test_parse_accepts_any_buffer_type(self):
        wire = encode_frame(b"h", b"payload")
        for cast in (bytes, bytearray, lambda b: memoryview(bytes(b))):
            frame, _ = decode_frame(cast(wire))
            assert frame.payload == b"payload"


class TestGatherEncoding:
    """encode_frame_parts/encode_frame_into mirror encode_frame exactly."""

    def test_parts_join_to_the_contiguous_encoding(self):
        for check in (True, False):
            parts = encode_frame_parts(b"header", b"payload-bytes", check=check)
            assert b"".join(bytes(p) for p in parts) == bytes(
                encode_frame(b"header", b"payload-bytes", check=check)
            )

    def test_parts_reference_caller_buffers_unchanged(self):
        header, payload = b"hdr", b"x" * 4096
        parts = encode_frame_parts(header, payload)
        assert any(part is header for part in parts)
        assert any(part is payload for part in parts)

    def test_encode_into_appends_and_reports_length(self):
        out = bytearray(b"prefix")
        written = encode_frame_into(out, b"h", b"payload")
        assert written == len(out) - len(b"prefix")
        assert bytes(out[len(b"prefix"):]) == bytes(encode_frame(b"h", b"payload"))

    def test_memoryview_inputs_encode_identically(self):
        header, payload = b"hdr", b"payload bytes here"
        from_views = encode_frame(memoryview(header), memoryview(payload))
        assert bytes(from_views) == bytes(encode_frame(header, payload))


class TestJumboFrames:
    """Batch super-frames: envelope, verbatim members, hostile input."""

    def members(self, count=4):
        return [
            bytes(encode_frame(b'{"i": %d}' % i, bytes([i]) * (i + 1)))
            for i in range(count)
        ]

    def test_round_trip_recovers_members_in_order(self):
        members = self.members()
        jumbo, _ = decode_frame(encode_jumbo_frame(members))
        assert is_jumbo_frame(jumbo)
        unpacked = unpack_jumbo_frame(jumbo)
        assert [m.payload_bytes for m in unpacked] == [
            decode_frame(raw)[0].payload_bytes for raw in members
        ]

    def test_members_ride_verbatim(self):
        # The jumbo payload embeds each encoded member byte for byte, so
        # CRC chains over sliced members equal the unbatched chain.
        members = self.members()
        jumbo, _ = decode_frame(encode_jumbo_frame(members))
        assert b"".join(members) in jumbo.payload_bytes

    def test_jumbo_is_an_ordinary_checked_frame(self):
        jumbo, offset = decode_frame(encode_jumbo_frame(self.members()))
        assert jumbo.checked
        assert jumbo.header == JUMBO_HEADER

    def test_unpack_is_zero_copy(self):
        jumbo, _ = decode_frame(encode_jumbo_frame(self.members()))
        for member in unpack_jumbo_frame(jumbo):
            assert isinstance(member.payload, memoryview)

    def test_non_jumbo_frame_returns_none(self):
        plain, _ = decode_frame(encode_frame(b'{"k": 1}', b"payload"))
        assert not is_jumbo_frame(plain)
        assert unpack_jumbo_frame(plain) is None

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            encode_jumbo_frame([])

    def test_single_member_batch_round_trips(self):
        member = bytes(encode_frame(b"h", b"lone"))
        jumbo, _ = decode_frame(encode_jumbo_frame([member]))
        unpacked = unpack_jumbo_frame(jumbo)
        assert len(unpacked) == 1
        assert unpacked[0].payload == b"lone"

    def test_corrupt_member_attributed_not_whole_batch(self):
        # Damage one member's CRC *inside* the jumbo payload: the jumbo
        # envelope CRC is recomputed so only the inner parse fails.
        members = self.members()
        wire = bytearray(encode_jumbo_frame(members))
        import zlib

        from repro.compression.varint import write_varint

        jumbo, _ = decode_frame(bytes(wire))
        payload = bytearray(jumbo.payload_bytes)
        payload[-1] ^= 0xFF  # last byte of the last member's CRC
        rebuilt = bytearray()
        rebuilt += FRAME_V2_MAGIC
        write_varint(rebuilt, FLAG_CRC32)
        write_varint(rebuilt, len(JUMBO_HEADER))
        rebuilt += JUMBO_HEADER
        write_varint(rebuilt, len(payload))
        rebuilt += payload
        crc = zlib.crc32(payload, zlib.crc32(JUMBO_HEADER))
        rebuilt += crc.to_bytes(4, "little")
        damaged, _ = decode_frame(bytes(rebuilt))
        with pytest.raises(CorruptStreamError):
            unpack_jumbo_frame(damaged)

    def test_offset_table_extent_mismatch_rejected(self):
        import zlib

        from repro.compression.varint import write_varint

        members = self.members(2)
        payload = bytearray()
        write_varint(payload, 2)
        write_varint(payload, len(members[0]) + 1)  # lies about the extent
        write_varint(payload, len(members[1]))
        payload += members[0] + members[1] + b"\x00"
        rebuilt = bytearray()
        rebuilt += FRAME_V2_MAGIC
        write_varint(rebuilt, FLAG_CRC32)
        write_varint(rebuilt, len(JUMBO_HEADER))
        rebuilt += JUMBO_HEADER
        write_varint(rebuilt, len(payload))
        rebuilt += payload
        rebuilt += (
            zlib.crc32(payload, zlib.crc32(JUMBO_HEADER)).to_bytes(4, "little")
        )
        frame, _ = decode_frame(bytes(rebuilt))
        with pytest.raises(CorruptStreamError):
            unpack_jumbo_frame(frame)

    def test_jumbo_parses_through_the_frame_decoder(self):
        members = self.members(3)
        wire = bytes(encode_jumbo_frame(members)) + bytes(encode_frame(b"h", b"after"))
        frames = FrameDecoder().feed(wire)
        assert len(frames) == 2
        assert is_jumbo_frame(frames[0])
        assert len(unpack_jumbo_frame(frames[0])) == 3
        assert frames[1].payload == b"after"
