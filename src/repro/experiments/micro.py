"""Microbenchmark harnesses: Figures 1, 2, 3, 4 and 6.

Figures 2, 3, 4 and 6 are host calibrations: every measured number is a
:func:`~repro.core.calibration.calibrate` cost model of the from-scratch
codecs on the figure's data — the same shape as the paper-calibrated
``DEFAULT_COSTS`` the modeled replays run on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..compression.registry import get_codec
from ..core.calibration import calibrate
from ..core.decision import FIGURE1_TABLE
from ..data.commercial import CommercialDataGenerator
from ..data.molecular import MolecularDataGenerator
from ..netsim.cpu import SUN_FIRE, ULTRA_SPARC, CodecCostModel, CpuModel

__all__ = [
    "METHOD_ORDER",
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


def commercial_sample(size: int = 512 * 1024, seed: int = 2004) -> bytes:
    """The commercial dataset slice used by the microbenchmarks."""
    return CommercialDataGenerator(seed=seed).xml_block(size)


def _calibrate_methods(data: bytes) -> CodecCostModel:
    return calibrate({method: get_codec(method) for method in METHOD_ORDER}, data)


def figure1_rows() -> List[Tuple[str, Dict[str, str]]]:
    """The qualitative decision table, rendered as printable rows."""
    return [
        (characteristic, {m: str(r) for m, r in by_method.items()})
        for characteristic, by_method in FIGURE1_TABLE.items()
    ]


def figure2_ratios(data: Optional[bytes] = None) -> CodecCostModel:
    """Compression ratios and times on commercial data (Figures 2 and 3)."""
    return _calibrate_methods(data if data is not None else commercial_sample())


def figure4_reducing_speeds(
    model: Optional[CodecCostModel] = None,
    machines: Optional[List[CpuModel]] = None,
) -> Dict[str, Dict[str, float]]:
    """Reducing speed (bytes removed / second) per method per machine.

    ``model`` (default: :func:`figure2_ratios`) is the host measurement,
    the reference machine; other machines are derived through their
    :class:`CpuModel` factors — the substitution for the paper's two
    physical Suns (DESIGN.md §3).
    Returns ``{machine_name: {method: bytes_per_second}}``.
    """
    model = model if model is not None else figure2_ratios()
    cpus = machines if machines is not None else [SUN_FIRE, ULTRA_SPARC]
    return {
        cpu.name: {m: model.reducing_speed(m, cpu) for m in METHOD_ORDER} for cpu in cpus
    }


def figure6_molecular_ratios(
    atom_count: int = 8192, seed: int = 42
) -> Dict[str, CodecCostModel]:
    """Per-field compression on molecular data (Figure 6).

    Returns ``{field: model}`` for the three fields the paper separates:
    atom types, velocities, coordinates.
    """
    generator = MolecularDataGenerator(atom_count=atom_count, seed=seed)
    fields = {
        "type": generator.types_block(),
        "velocity": generator.velocities_block(),
        "coordinates": generator.coordinates_block(),
    }
    return {field: _calibrate_methods(blob) for field, blob in fields.items()}
