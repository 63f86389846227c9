"""CPU models and codec cost calibration (paper Figure 4 substrate).

The paper ran on a Sun-Fire-280R (UltraSPARC-III) and an Ultra-Sparc
(UltraSPARC-II); Figure 4 shows the Sun-Fire reducing data roughly 2-2.5x
faster.  We cannot run on Solaris hardware, so:

* :class:`CpuModel` captures a machine as a *relative speed factor* plus a
  dynamic load level.  Any per-byte codec cost is divided by the factor
  and multiplied by ``1 + load`` — which is all the selection algorithm
  ever observes.
* :class:`CodecCostModel` holds calibrated per-codec compression and
  decompression throughputs plus typical ratios.  The deterministic
  end-to-end experiments consume these instead of wall-clock timings so
  Figures 8-12 are exactly reproducible;
  :func:`repro.core.calibration.calibrate` measures a real cost model from
  the host with any dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

__all__ = [
    "CpuModel",
    "CodecCost",
    "CodecCostModel",
    "DEFAULT_COSTS",
    "SUN_FIRE",
    "ULTRA_SPARC",
]


@dataclass
class CpuModel:
    """A machine with a relative speed and a varying load.

    ``speed_factor`` is relative to the reference machine (the paper's
    Sun-Fire, factor 1.0).  ``load`` in [0, inf) is the competing-work
    level: a load of 1.0 doubles every compression time, which is how
    "compression speed due to available CPU resources" (§1) enters the
    selector.
    """

    name: str
    speed_factor: float = 1.0
    load: float = 0.0

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if self.load < 0:
            raise ValueError("load must be non-negative")

    def scale_time(self, seconds: float) -> float:
        """Time this machine needs for work the reference does in ``seconds``."""
        return seconds / self.speed_factor * (1.0 + self.load)

    def scale_speed(self, bytes_per_second: float) -> float:
        """Throughput this machine achieves given the reference's."""
        return bytes_per_second * self.speed_factor / (1.0 + self.load)


#: The two testbed machines (Figure 4).  Factors chosen to reproduce the
#: roughly 2.4x reducing-speed gap the paper measured.
SUN_FIRE = CpuModel("Sun-Fire-280R", speed_factor=1.0)
ULTRA_SPARC = CpuModel("Ultra-Sparc", speed_factor=0.42)


@dataclass(frozen=True)
class CodecCost:
    """Calibrated operating point of one codec on the reference machine."""

    #: Input bytes compressed per second.
    compress_throughput: float
    #: Output bytes decompressed per second (of original size).
    decompress_throughput: float
    #: Typical compressed/original ratio on the calibration data.
    typical_ratio: float

    def __post_init__(self) -> None:
        if self.compress_throughput <= 0 or self.decompress_throughput <= 0:
            raise ValueError("throughputs must be positive")
        if self.typical_ratio < 0:
            raise ValueError("typical_ratio must be non-negative")


class CodecCostModel:
    """Per-codec cost table used by the deterministic simulation mode."""

    def __init__(self, costs: Dict[str, CodecCost]) -> None:
        if "none" not in costs:
            costs = dict(costs)
            costs["none"] = CodecCost(
                compress_throughput=1e12, decompress_throughput=1e12, typical_ratio=1.0
            )
        self._costs = dict(costs)

    def cost(self, codec_name: str) -> CodecCost:
        try:
            return self._costs[codec_name]
        except KeyError:
            raise KeyError(f"no calibrated cost for codec {codec_name!r}") from None

    def codecs(self) -> Iterable[str]:
        return sorted(self._costs)

    def compression_time(self, codec_name: str, size: int, cpu: Optional[CpuModel] = None) -> float:
        """Seconds to compress ``size`` bytes on ``cpu`` (reference if None)."""
        seconds = size / self.cost(codec_name).compress_throughput
        return cpu.scale_time(seconds) if cpu else seconds

    def decompression_time(self, codec_name: str, size: int, cpu: Optional[CpuModel] = None) -> float:
        """Seconds to decompress back to ``size`` original bytes."""
        seconds = size / self.cost(codec_name).decompress_throughput
        return cpu.scale_time(seconds) if cpu else seconds

    def reducing_speed(self, codec_name: str, cpu: Optional[CpuModel] = None) -> float:
        """Bytes removed per second — the Figure 4 metric — for this codec."""
        cost = self.cost(codec_name)
        saved_per_input_byte = max(0.0, 1.0 - cost.typical_ratio)
        speed = cost.compress_throughput * saved_per_input_byte
        return cpu.scale_speed(speed) if cpu else speed


_MB = float(1 << 20)

#: Calibrated to the paper's Sun-Fire-280R measurements: throughputs are
#: back-solved from the Figure 3 compression/decompression times over the
#: commercial dataset, typical ratios come from Figure 2.  With these
#: numbers :meth:`CodecCostModel.reducing_speed` reproduces the Figure 4
#: bars (Huffman highest, Lempel-Ziv mid, Burrows-Wheeler and arithmetic
#: low) and the modeled end-to-end replays (Figures 8-12) run at the
#: paper's operating point rather than this host's.  Use
#: :func:`repro.core.calibration.calibrate` for a host-measured model instead.
DEFAULT_COSTS = CodecCostModel(
    {
        "huffman": CodecCost(
            compress_throughput=8.2 * _MB,
            decompress_throughput=11.0 * _MB,
            typical_ratio=0.47,
        ),
        "lempel-ziv": CodecCost(
            compress_throughput=2.2 * _MB,
            decompress_throughput=9.8 * _MB,
            typical_ratio=0.41,
        ),
        "burrows-wheeler": CodecCost(
            compress_throughput=0.95 * _MB,
            decompress_throughput=2.4 * _MB,
            typical_ratio=0.34,
        ),
        "arithmetic": CodecCost(
            compress_throughput=1.3 * _MB,
            decompress_throughput=1.0 * _MB,
            typical_ratio=0.46,
        ),
        # Modern fast-compressor tier (zstd-native / lz4-native), scaled to
        # the same reference machine.  Public lzbench-class measurements
        # put zstd -3 near 25x and lz4 near 100x zlib's compression
        # throughput with weaker ratios; the entries are harmless when the
        # bindings are absent — the modeled mode only ever looks up codecs
        # a candidate set names.
        "zstd-native": CodecCost(
            compress_throughput=55.0 * _MB,
            decompress_throughput=160.0 * _MB,
            typical_ratio=0.44,
        ),
        "lz4-native": CodecCost(
            compress_throughput=180.0 * _MB,
            decompress_throughput=700.0 * _MB,
            typical_ratio=0.55,
        ),
        # Structure-aware family, calibrated on the seeded log/telemetry
        # corpora (benchmarks/bench_structured.py measurements).  The ratios
        # only hold on data the sniffers matched; no candidate grid names
        # these codecs, so they are priced only when a caller picks one
        # outright (FixedPolicy, a handler, --method) for such a stream.
        "template": CodecCost(
            compress_throughput=7.0 * _MB,
            decompress_throughput=30.0 * _MB,
            typical_ratio=0.18,
        ),
        "columnar": CodecCost(
            compress_throughput=40.0 * _MB,
            decompress_throughput=200.0 * _MB,
            typical_ratio=0.19,
        ),
    }
)
