"""The Lempel-Ziv sampling probe (paper §2.5).

"Fork a sampling process to compress the first 4KB of the next block by
Lempel-Ziv and use its output to determine the reducing speed size and
the compression ratio for the next 128KB block."

:class:`LzSampler` performs that probe; what it keeps of the output is
its size.  In *measured* mode a probe is a real compress of the sample
under a wall-clock timer (the engine's :func:`~repro.core.engine.timed`),
so the reducing speed is the host's.  In *modeled* mode (when a
:class:`~repro.netsim.cpu.CodecCostModel` is supplied) a probe is the
sample's :meth:`~repro.compression.base.Codec.compressed_size`, untimed:
the ratio is still the real one — for Lempel-Ziv the same parse and code
lengths, counted instead of written — and the elapsed time is the
calibrated cost model's, scaled by the CPU model, which is what makes the
end-to-end replays deterministic.

A probe has two phases.  Its *run* (the item
:meth:`LzSampler.probe_runs` maps: ``(compressed size, seconds)``)
needs nothing from the sampler but the codec, so it can happen anywhere,
on any core, ahead of time; its *accounting* (:meth:`LzSampler.account`:
the executor's scaling rule) reads the CPU model's load at the moment it
is asked.  That split is how the §2.5 fork is realised:
:meth:`LzSampler.probe_runs` takes every probe run of a stream in one
:func:`~repro.compression.parallel.chunk_map` (the caller and the codec
pool's workers claim heads as each is free: heads differ in cost, so a
fixed split would leave one side idle), and
:class:`~repro.core.pipeline.AdaptivePipeline` accounts each one at its
own block, where ``cpu.load`` is that block's.  In measured mode a
probe's seconds are therefore measured before the pipeline's loop, on
whichever core ran it.  The fork-overlap semantics (the child samples
while the parent sends) are reproduced by the pipeline's time
accounting, which charges ``max(send_time, sample_time)`` for the
overlapped phase.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..compression.base import Codec
from ..compression.parallel import chunk_map
from ..compression.registry import get_codec
from ..netsim.cpu import CodecCostModel, CpuModel
from .engine import BlockStats, CodecExecutor, timed

__all__ = ["LzSampler", "DEFAULT_SAMPLE_SIZE"]

DEFAULT_SAMPLE_SIZE = 4096

#: A probe that ran but is not accounted yet: (compressed size, measured
#: seconds; 0.0 for a modeled probe, which is not timed).
ProbeRun = Tuple[int, float]


def _measured_probe(codec: Codec, head: bytes) -> ProbeRun:
    """A real compress of ``head`` under the timer; only its size crosses back."""
    payload, seconds = timed(codec.compress, head)
    return len(payload), seconds


def _modeled_probe(codec: Codec, head: bytes) -> ProbeRun:
    """``head``'s compressed size, counted and untimed: the cost model prices it."""
    return codec.compressed_size(head), 0.0


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

    def probe_runs(self, blocks: Sequence[bytes]) -> List[ProbeRun]:
        """Run the probe of every block in ``blocks`` in one ``chunk_map``.

        Only the codec and the heads cross the process boundary, never
        the sampler, and only sizes and seconds come back.
        """
        heads = [block[: self.sample_size] for block in blocks]
        probe = _modeled_probe if self.executor.modeled else _measured_probe
        return chunk_map(partial(probe, self.codec), heads)

    def account(self, block: bytes, run: ProbeRun) -> BlockStats:
        """The record of ``block``'s probe ``run``, priced at the CPU's load now."""
        head_size = min(len(block), self.sample_size)
        name = self.codec.name
        if not head_size:
            return BlockStats(name, name, 0, 0, 0.0)
        size, seconds = run
        seconds = self.executor.compression_time(name, head_size, seconds)
        return BlockStats(name, name, head_size, size, seconds)

    def sample(self, next_block: bytes) -> BlockStats:
        """Probe ``next_block``'s first ``sample_size`` bytes: one accounted run."""
        return self.account(next_block, self.probe_runs([next_block])[0])
