"""Microbenchmark harnesses: Figures 1, 2, 3, 4 and 6.

Every function really compresses data with the from-scratch codecs and
returns the paper's series; formatting helpers print the rows a reader
would compare against the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.decision import FIGURE1_TABLE
from ..core.engine import CodecExecutor
from ..data.commercial import CommercialDataGenerator
from ..data.molecular import MolecularDataGenerator
from ..netsim.cpu import SUN_FIRE, ULTRA_SPARC, CpuModel

__all__ = [
    "METHOD_ORDER",
    "MicroResult",
    "commercial_sample",
    "figure1_rows",
    "figure2_ratios",
    "figure4_reducing_speeds",
    "figure6_molecular_ratios",
]

#: Presentation order used on the figures' x-axes.
METHOD_ORDER = ["burrows-wheeler", "lempel-ziv", "arithmetic", "huffman"]

#: Paper values for quick side-by-side printing.
PAPER_FIG2_PERCENT = {
    "burrows-wheeler": 34.0,
    "lempel-ziv": 41.0,
    "arithmetic": 46.0,
    "huffman": 47.0,
}


@dataclass(frozen=True)
class MicroResult:
    """One (method, dataset) measurement."""

    method: str
    ratio: float
    compress_seconds: float
    decompress_seconds: float

    @property
    def percent(self) -> float:
        return self.ratio * 100.0


def commercial_sample(size: int = 512 * 1024, seed: int = 2004) -> bytes:
    """The commercial dataset slice used by the microbenchmarks."""
    return CommercialDataGenerator(seed=seed).xml_block(size)


#: Shared measured-mode executor: the microbenchmarks time real codec
#: runs on the host (no cost model, no CPU scaling).
_EXECUTOR = CodecExecutor()


def _measure_method(method: str, data: bytes) -> MicroResult:
    execution, decompress_seconds = _EXECUTOR.measure_roundtrip(method, data)
    return MicroResult(
        method=method,
        ratio=execution.ratio,
        compress_seconds=execution.compression_seconds,
        decompress_seconds=decompress_seconds,
    )


def figure1_rows() -> List[Tuple[str, Dict[str, str]]]:
    """The qualitative decision table, rendered as printable rows."""
    return [
        (characteristic, {m: str(r) for m, r in by_method.items()})
        for characteristic, by_method in FIGURE1_TABLE.items()
    ]


def figure2_ratios(data: Optional[bytes] = None) -> Dict[str, MicroResult]:
    """Compression percentages on commercial data (Figure 2)."""
    payload = data if data is not None else commercial_sample()
    return {method: _measure_method(method, payload) for method in METHOD_ORDER}


def figure4_reducing_speeds(
    data: Optional[bytes] = None,
    machines: Optional[List[CpuModel]] = None,
) -> Dict[str, Dict[str, float]]:
    """Reducing speed (bytes removed / second) per method per machine.

    The host measurement provides the reference machine's speeds; other
    machines are derived through their :class:`CpuModel` factors — the
    substitution for the paper's two physical Suns (DESIGN.md §3).
    Returns ``{machine_name: {method: bytes_per_second}}``.
    """
    payload = data if data is not None else commercial_sample()
    cpus = machines if machines is not None else [SUN_FIRE, ULTRA_SPARC]
    reference: Dict[str, float] = {}
    for method in METHOD_ORDER:
        reference[method] = _EXECUTOR.compress(method, payload).reducing_speed
    return {
        cpu.name: {m: cpu.scale_speed(s) for m, s in reference.items()} for cpu in cpus
    }


def figure6_molecular_ratios(
    atom_count: int = 8192, seed: int = 42
) -> Dict[str, Dict[str, MicroResult]]:
    """Per-field compression on molecular data (Figure 6).

    Returns ``{field: {method: MicroResult}}`` for the three fields the
    paper separates: atom types, velocities, coordinates.
    """
    generator = MolecularDataGenerator(atom_count=atom_count, seed=seed)
    fields = {
        "type": generator.types_block(),
        "velocity": generator.velocities_block(),
        "coordinates": generator.coordinates_block(),
    }
    return {
        field: {method: _measure_method(method, blob) for method in METHOD_ORDER}
        for field, blob in fields.items()
    }
