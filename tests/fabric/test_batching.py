"""Unit tests for jumbo-frame batching (repro.fabric.batching)."""

import pytest

from repro.compression.framing import (
    decode_frame,
    encode_frame,
    is_jumbo_frame,
    unpack_jumbo_frame,
)
from repro.fabric.batching import BatchConfig, FlushedBatch, FrameBatcher


def frame(i, size=10):
    return bytes(encode_frame(b'{"i": %d}' % i, bytes([i % 256]) * size))


class TestThresholds:
    def test_frame_count_trips_a_flush(self):
        batcher = FrameBatcher(BatchConfig(max_frames=3, max_bytes=1 << 20))
        assert batcher.add(frame(0)) is None
        assert batcher.add(frame(1)) is None
        flushed = batcher.add(frame(2))
        assert flushed is not None
        assert flushed.reason == "frames"
        assert flushed.frames == 3
        assert batcher.pending_frames == 0

    def test_byte_budget_trips_a_flush(self):
        big = frame(0, size=100)
        batcher = FrameBatcher(BatchConfig(max_frames=100, max_bytes=len(big) + 1))
        assert batcher.add(big) is None
        flushed = batcher.add(frame(1, size=5))
        assert flushed is not None
        assert flushed.reason == "bytes"
        assert flushed.frames == 2

    def test_clock_free_batcher_never_deadline_flushes(self):
        batcher = FrameBatcher(BatchConfig(max_frames=100, linger_seconds=0.0))
        for i in range(10):
            assert batcher.add(frame(i)) is None  # now=None: thresholds only
        assert batcher.pending_frames == 10


class TestDeadline:
    def test_first_member_arms_the_deadline(self):
        batcher = FrameBatcher(BatchConfig(max_frames=100, linger_seconds=0.5))
        batcher.add(frame(0), now=10.0)
        assert not batcher.due(10.4)
        assert batcher.due(10.5)

    def test_deadline_trips_on_add(self):
        batcher = FrameBatcher(BatchConfig(max_frames=100, linger_seconds=0.5))
        assert batcher.add(frame(0), now=10.0) is None
        flushed = batcher.add(frame(1), now=10.6)
        assert flushed is not None
        assert flushed.reason == "deadline"

    def test_deadline_rearms_after_a_flush(self):
        batcher = FrameBatcher(BatchConfig(max_frames=2, linger_seconds=0.5))
        batcher.add(frame(0), now=10.0)
        batcher.add(frame(1), now=10.1)  # frames threshold flushes
        assert not batcher.due(11.0)  # empty: nothing owed
        batcher.add(frame(2), now=20.0)
        assert not batcher.due(20.4)
        assert batcher.due(20.5)


class TestFlushShape:
    def test_multi_member_flush_is_a_jumbo_frame(self):
        batcher = FrameBatcher(BatchConfig(max_frames=3))
        batcher.add(frame(0))
        batcher.add(frame(1))
        flushed = batcher.add(frame(2))
        parsed, _ = decode_frame(flushed.wire)
        assert is_jumbo_frame(parsed)
        members = unpack_jumbo_frame(parsed)
        assert [m.payload_bytes for m in members] == [
            decode_frame(frame(i))[0].payload_bytes for i in range(3)
        ]

    def test_single_member_flush_is_the_bare_frame(self):
        batcher = FrameBatcher()
        lone = frame(7)
        batcher.add(lone)
        flushed = batcher.flush()
        assert flushed.wire is lone  # no jumbo envelope around one frame
        parsed, _ = decode_frame(flushed.wire)
        assert not is_jumbo_frame(parsed)

    def test_drain_flushes_everything_pending(self):
        batcher = FrameBatcher(BatchConfig(max_frames=100))
        for i in range(5):
            batcher.add(frame(i))
        flushed = batcher.flush()
        assert flushed.reason == "drain"
        assert flushed.frames == 5
        assert batcher.pending_frames == 0
        assert batcher.pending_bytes == 0

    def test_flush_when_empty_returns_none(self):
        assert FrameBatcher().flush() is None

    def test_counters_accumulate_across_flushes(self):
        batcher = FrameBatcher(BatchConfig(max_frames=2))
        for i in range(4):
            batcher.add(frame(i))
        assert batcher.batches_emitted == 2
        assert batcher.frames_batched == 4
        assert batcher.bytes_batched == sum(len(frame(i)) for i in range(4))

    def test_fill_ratio_bounded_by_one(self):
        config = BatchConfig(max_frames=100, max_bytes=50)
        batch = FlushedBatch(wire=b"", frames=2, member_bytes=40, reason="drain")
        assert batch.fill_ratio(config) == pytest.approx(0.8)
        overfull = FlushedBatch(wire=b"", frames=2, member_bytes=90, reason="bytes")
        assert overfull.fill_ratio(config) == 1.0


class TestPeerSharing:
    """``flush(reason, peer)``: one assembly per group of identical flushes."""

    CONFIG = BatchConfig(max_frames=3, max_bytes=1 << 20)

    def fill(self, batcher, frames, peer=None):
        flushed = None
        for member in frames:
            flushed = batcher.add(member, None, peer)
        return flushed

    def test_same_members_same_reason_returns_the_peer(self):
        frames = [frame(i) for i in range(3)]
        first = self.fill(FrameBatcher(self.CONFIG), frames)
        follower = FrameBatcher(self.CONFIG)
        shared = self.fill(follower, frames, peer=first)
        assert shared is first
        # The follower's own state and counters moved as if it had assembled.
        assert follower.pending_frames == 0 and follower.pending_bytes == 0
        assert follower.batches_emitted == 1 and follower.frames_batched == 3

    def test_equal_bytes_in_other_objects_assemble_their_own(self):
        first = self.fill(FrameBatcher(self.CONFIG), [frame(i) for i in range(3)])
        own = self.fill(FrameBatcher(self.CONFIG), [frame(i) for i in range(3)], peer=first)
        assert own is not first
        assert own.wire is not first.wire
        assert own.wire == first.wire

    def test_a_late_joiner_assembles_its_own_shorter_batch(self):
        frames = [frame(i) for i in range(3)]
        first = self.fill(FrameBatcher(self.CONFIG), frames)
        late = FrameBatcher(self.CONFIG)
        late.add(frames[1])
        late.add(frames[2])
        own = late.flush("frames", first)
        assert own is not first
        assert own.frames == 2
        members = unpack_jumbo_frame(decode_frame(own.wire)[0])
        assert [bytes(m.payload_bytes) for m in members] == [
            decode_frame(f)[0].payload_bytes for f in frames[1:]
        ]

    def test_another_reason_keeps_its_own_reason(self):
        frames = [frame(i) for i in range(3)]
        first = self.fill(FrameBatcher(self.CONFIG), frames)
        assert first.reason == "frames"
        other = FrameBatcher(BatchConfig(max_frames=100))
        for member in frames:
            other.add(member)
        for reason in ("drain", "deadline"):
            other_flush = other.flush(reason, first)
            assert other_flush is not first
            assert other_flush.reason == reason
            assert other_flush.wire == first.wire
            for member in frames:
                other.add(member)

    def test_a_shared_batch_of_one_is_still_the_bare_frame(self):
        lone = frame(7)
        first = FrameBatcher()
        first.add(lone)
        flushed = first.flush()
        follower = FrameBatcher()
        follower.add(lone)
        assert follower.flush("drain", flushed) is flushed
        assert flushed.wire is lone

    def test_a_lone_batcher_is_eager(self):
        # No peer: the buffer exists when add() returns (what the wall-clock
        # bench's staged batching probe times).
        flushed = self.fill(FrameBatcher(self.CONFIG), [frame(i) for i in range(3)])
        assert isinstance(flushed.wire, bytearray)
        assert len(flushed.members) == flushed.frames == 3

    def test_the_batcher_keeps_no_reference_to_flushed_members(self):
        import weakref

        class Member(bytearray):
            pass  # bytearray itself takes no weak references

        frames = [Member(frame(i)) for i in range(3)]
        watch = weakref.ref(frames[0])
        batcher = FrameBatcher(self.CONFIG)
        flushed = self.fill(batcher, frames)
        del frames
        assert watch() is not None  # the transient record still holds them
        del flushed
        assert watch() is None


class TestDiscard:
    def test_discard_drops_everything_and_reports_the_count(self):
        batcher = FrameBatcher(BatchConfig(max_frames=100, linger_seconds=0.5))
        for i in range(3):
            batcher.add(frame(i), now=10.0)
        assert batcher.discard() == 3
        assert batcher.pending_frames == 0
        assert batcher.pending_bytes == 0
        assert not batcher.due(1e9)  # the deadline went with the frames
        assert batcher.flush() is None
        assert batcher.batches_emitted == 0  # discarded, never emitted
        assert batcher.discard() == 0


class TestConfigValidation:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            BatchConfig(max_frames=0)
        with pytest.raises(ValueError):
            BatchConfig(max_bytes=0)
        with pytest.raises(ValueError):
            BatchConfig(linger_seconds=-0.1)
