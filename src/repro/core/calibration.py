"""Host calibration and threshold calibration — the paper's tuning procedure (§2.5).

"Obviously, this information is specific to the particular data used ...
However, these numbers can be tuned easily by sampling even a small piece
of data extracted from the original file and send this piece of data over
an unloaded line employing unloaded CPUs."

:func:`calibrate` measures a :class:`~repro.netsim.cpu.CodecCostModel`
from that small piece: each codec round-trips it through
:meth:`~repro.core.engine.CodecExecutor.measure_roundtrip` once to warm
up, then :data:`ROUNDS` times of which each direction keeps its median,
and a codec that does not restore its input raises instead of a cost.

:func:`calibrate_thresholds` reconstructs the paper's constants from a
cost model's Lempel-Ziv and Burrows-Wheeler operating points, and applied
to the paper's own Figure 2/4 numbers (``calibrate_thresholds(DEFAULT_COSTS)``)
it *reproduces them*:

* ``compress_factor = 1 - margin``.  The §2.5 inequality ``sending_time >
  f * block/reducing_speed`` marks the exact break-even between "send
  raw" and "compress with LZ, then send" at ``f = 1`` (algebra: LZ wins
  when ``block/throughput < sending_time * (1 - ratio)``; dividing by
  ``reducing_speed = throughput * (1 - ratio)`` cancels the ratio).  The
  paper's 0.83 is that knee with a 17 % eagerness margin.
* ``bw_factor = 2 * compress_factor * rs_lz / rs_bw`` — "escalate to
  Burrows-Wheeler once the sending time exceeds (with the same margin)
  twice *Burrows-Wheeler's own* reduce time", re-expressed in the LZ
  units the pseudocode uses.  With the Figure 4 reducing speeds
  (LZ ≈ 1.3, BW ≈ 0.63 MB/s) this yields ≈ 3.4 — the paper's 3.48.
* ``ratio_gate = 1.19 * lz_sample_ratio`` — "the efficiency of the
  sampling has been set according to the numbers of Figure 2": the
  paper's 48.78 % is exactly 1.19x its Figure 2 Lempel-Ziv ratio (41 %),
  i.e. "treat the probe as dictionary-responsive if it compresses at most
  ~20 % worse than the calibration data did."
"""

from __future__ import annotations

from statistics import median
from typing import Dict

from ..compression.base import Codec
from ..netsim.cpu import CodecCost, CodecCostModel
from .decision import DecisionThresholds
from .engine import CodecExecutor

__all__ = ["calibrate", "calibrate_thresholds"]

#: The paper's gate-to-sample-ratio multiplier (0.4878 / 0.41).
GATE_HEADROOM = 1.19
#: Sending time must exceed this multiple of BW's own reduce time.
BW_PATIENCE = 2.0
#: Timed round trips per codec after the warm-up; the model keeps their median.
ROUNDS = 5


def calibrate(codecs: Dict[str, Codec], sample: bytes) -> CodecCostModel:
    """Measure a :class:`CodecCostModel`: per codec and direction, the
    median of :data:`ROUNDS` checked round trips after one warm-up."""
    if not sample:
        raise ValueError("calibration sample must be non-empty")
    executor = CodecExecutor()
    costs: Dict[str, CodecCost] = {}
    for name, codec in codecs.items():
        executor.measure_roundtrip(name, sample, codec=codec)
        runs = [executor.measure_roundtrip(name, sample, codec=codec) for _ in range(ROUNDS)]
        compress = median([run.compression_seconds for run in runs])
        decompress = median([run.decompression_seconds for run in runs])
        costs[name] = CodecCost(
            compress_throughput=len(sample) / max(compress, 1e-9),
            decompress_throughput=len(sample) / max(decompress, 1e-9),
            typical_ratio=runs[0].ratio,
        )
    return CodecCostModel(costs)


def calibrate_thresholds(costs: CodecCostModel, margin: float = 0.17) -> DecisionThresholds:
    """Derive decision thresholds from ``costs``' LZ and BW points (§2.5).

    ``costs`` is the paper's (:data:`~repro.netsim.cpu.DEFAULT_COSTS`) or a
    :func:`calibrate` model of a small sample run "employing unloaded CPUs".
    """
    if not 0.0 <= margin < 1.0:
        raise ValueError("margin must be in [0, 1)")
    lz_speed = costs.reducing_speed("lempel-ziv")
    bw_speed = costs.reducing_speed("burrows-wheeler")
    if lz_speed <= 0 or bw_speed <= 0:
        raise ValueError(
            "calibration sample is incompressible; pick a representative sample"
        )
    compress_factor = 1.0 - margin
    return DecisionThresholds(
        compress_factor=compress_factor,
        bw_factor=max(compress_factor, BW_PATIENCE * compress_factor * lz_speed / bw_speed),
        ratio_gate=min(0.95, GATE_HEADROOM * costs.cost("lempel-ziv").typical_ratio),
    )
