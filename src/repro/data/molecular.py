"""Synthetic molecular-dynamics data (paper ref [4]).

The paper's scientific dataset "contains the coordinates of atoms, their
velocities and their types", PBIO-encoded, with very different
compressibility per field (Figure 6):

* **coordinates** — essentially incompressible (high-entropy mantissas),
* **velocities** — intermediate (thermal distribution, quantized output),
* **types** — highly compressible (a handful of species, long runs).

The generator reproduces those signatures from a small Lennard-Jones-style
random walk: positions diffuse inside a box, velocities follow a
Maxwell-Boltzmann distribution quantized to instrument precision, and
types are constant per atom with species sorted in blocks (as MD codes
typically lay them out).
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from .pbio import FieldType, RecordFormat, encode_records

__all__ = ["MolecularDataGenerator", "FRAME_FORMAT"]

FRAME_FORMAT = RecordFormat(
    "md_frame",
    [
        ("step", FieldType.INT64),
        ("coordinates", FieldType.FLOAT64_ARRAY),
        ("velocities", FieldType.FLOAT32_ARRAY),
        ("types", FieldType.INT32_ARRAY),
    ],
)

_SPECIES_COUNT = 5
_VELOCITY_QUANTUM = 1.0 / 512.0
#: Edge of the periodic box the positions diffuse in.
_BOX = 64.0
#: One contribution in this many is a type/topology refresh.
_METADATA_PERIOD = 12


class MolecularDataGenerator:
    """Deterministic MD trajectory generator with per-field extractors."""

    def __init__(self, atom_count: int = 2048, seed: int = 42) -> None:
        if atom_count < 1:
            raise ValueError("atom_count must be positive")
        self.atom_count = atom_count
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._step = 0
        self._positions = self._rng.uniform(0.0, _BOX, size=(atom_count, 3))
        # Species assigned in contiguous blocks, as MD codes order atoms.
        sizes = self._rng.multinomial(atom_count, [1 / _SPECIES_COUNT] * _SPECIES_COUNT)
        self._types = np.repeat(np.arange(_SPECIES_COUNT, dtype=np.int32), sizes)

    def reset(self) -> None:
        """Rewind to the initial trajectory state."""
        self.__init__(self.atom_count, self._seed)

    def advance(self) -> None:
        """Integrate one (stochastic) timestep."""
        self._step += 1
        displacement = self._rng.normal(0.0, 0.05, size=self._positions.shape)
        self._positions = (self._positions + displacement) % _BOX

    # -- per-field raw blocks (Figure 6 microbenchmark inputs) -----------------

    def coordinates_block(self) -> bytes:
        """Raw float64 coordinates — the near-incompressible field."""
        return self._positions.astype("<f8").tobytes()

    def velocities_block(self) -> bytes:
        """Quantized float32 velocities — intermediate compressibility."""
        velocities = self._rng.normal(0.0, 1.2, size=(self.atom_count, 3))
        quantized = np.round(velocities / _VELOCITY_QUANTUM) * _VELOCITY_QUANTUM
        return quantized.astype("<f4").tobytes()

    def types_block(self) -> bytes:
        """Species ids — long runs over a 5-symbol alphabet, very compressible."""
        return self._types.astype("<i4").tobytes()

    # -- full frames ------------------------------------------------------------

    def frame(self) -> bytes:
        """One PBIO-encoded trajectory frame (all three fields)."""
        velocities = self._rng.normal(0.0, 1.2, size=(self.atom_count, 3))
        quantized = np.round(velocities / _VELOCITY_QUANTUM) * _VELOCITY_QUANTUM
        record = {
            "step": self._step,
            "coordinates": [float(x) for x in self._positions.reshape(-1)],
            "velocities": [float(x) for x in quantized.reshape(-1)],
            "types": [int(t) for t in self._types],
        }
        self.advance()
        return encode_records(FRAME_FORMAT, [record])

    def stream(self, block_size: int, block_count: int) -> Iterator[bytes]:
        """Fixed-size blocks cut from the trajectory byte stream.

        Every ``_METADATA_PERIOD``-th contribution is a type/topology refresh
        (pure species tables) — the "small portions of the data that have
        string repetitions" which the paper's selector catches and routes
        to Lempel-Ziv or Burrows-Wheeler (Figure 11); everything else is
        coordinate/velocity payload.
        """
        pending = bytearray()
        emitted = 0
        contribution = 0
        while emitted < block_count:
            while len(pending) < block_size:
                contribution += 1
                if contribution % _METADATA_PERIOD == 0:
                    # Topology refresh: repeat the species table several
                    # times (bond tables, group maps, exclusion lists all
                    # derive from it in real MD codes).
                    pending += self.types_block() * 6
                else:
                    pending += self.coordinates_block()
                    pending += self.velocities_block()
                    self.advance()
            yield bytes(pending[:block_size])
            del pending[:block_size]
            emitted += 1
