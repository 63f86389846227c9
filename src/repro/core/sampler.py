"""The Lempel-Ziv sampling probe (paper §2.5).

"Fork a sampling process to compress the first 4KB of the next block by
Lempel-Ziv and use its output to determine the reducing speed size and
the compression ratio for the next 128KB block."

:class:`LzSampler` performs that probe.  In *measured* mode it compresses
the sample with the real codec under a wall-clock timer; in *modeled* mode
(when a :class:`~repro.netsim.cpu.CodecCostModel` is supplied) the ratio
still comes from really compressing the sample, but the elapsed time is
taken from the calibrated cost model scaled by the CPU model — which is
what makes the end-to-end replays deterministic.

The fork-overlap semantics (the child samples while the parent sends) are
reproduced by the pipeline's time accounting, which charges
``max(send_time, sample_time)`` for the overlapped phase.
"""

from __future__ import annotations

from typing import Optional

from ..compression.base import Codec
from ..compression.registry import get_codec
from ..netsim.cpu import CodecCostModel, CpuModel
from .engine import BlockStats, CodecExecutor

__all__ = ["LzSampler", "DEFAULT_SAMPLE_SIZE"]

DEFAULT_SAMPLE_SIZE = 4096


class LzSampler:
    """Compress the head of the next block with Lempel-Ziv and report."""

    def __init__(
        self,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        codec: Optional[Codec] = None,
        cost_model: Optional[CodecCostModel] = None,
        cpu: Optional[CpuModel] = None,
    ) -> None:
        if sample_size < 64:
            raise ValueError("sample_size must be at least 64 bytes")
        self.sample_size = sample_size
        self.codec = codec if codec is not None else get_codec("lempel-ziv")
        self.executor = CodecExecutor(cost_model=cost_model, cpu=cpu)

    def sample(self, next_block: bytes) -> BlockStats:
        """Probe ``next_block``'s first ``sample_size`` bytes: the probe's own run."""
        head = next_block[: self.sample_size]
        name = self.codec.name
        if not head:
            return BlockStats(name, name, 0, 0, 0.0)
        return self.executor.compress(name, head, codec=self.codec)
