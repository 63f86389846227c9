"""Seeded inputs.  ``--seed`` drives every generator here and nothing else
does: the program under test only ever receives these bytes."""

from __future__ import annotations

from typing import Dict, List

from repro.data import (
    CommercialDataGenerator,
    LogDataGenerator,
    MolecularDataGenerator,
    TimeSeriesGenerator,
)

CORPORA = ("commercial", "molecular", "logs", "timeseries")


def corpus_blocks(name: str, seed: int, block_size: int, count: int) -> List[bytes]:
    """``count`` blocks of ``block_size`` bytes from one of the four corpora."""
    if name == "commercial":
        generator = CommercialDataGenerator(seed=seed)
    elif name == "molecular":
        generator = MolecularDataGenerator(atom_count=4096, seed=seed)
    elif name == "logs":
        generator = LogDataGenerator(seed=seed)
    elif name == "timeseries":
        generator = TimeSeriesGenerator(seed=seed)
    else:
        raise ValueError(f"unknown corpus {name!r}")
    return list(generator.stream(block_size, count))


def all_corpora(seed: int, block_size: int, count: int) -> Dict[str, List[bytes]]:
    return {name: corpus_blocks(name, seed, block_size, count) for name in CORPORA}
