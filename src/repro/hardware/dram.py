"""Host DRAM energy model (Micron LPDDR3-1600 substitute).

The paper computes DRAM energy from Micron's system power calculator for a
16 Gb LPDDR3-1600 part (4 channels), driven by the memory traffic of the
segmentation ViT's kernels and activations.  The calculator's outputs
reduce to an access energy per byte plus a background (standby/refresh)
power; published LPDDR3 figures put the IO+core access cost at roughly
40 pJ/byte.  The background power is not priced here: it is part of the
per-variant host idle power in :mod:`repro.hardware.energy`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LPDDR3Model"]


@dataclass(frozen=True)
class LPDDR3Model:
    """Energy model for the host's LPDDR3 memory system."""

    #: Read/write access energy (core + IO) per byte.
    access_energy_per_byte_j: float = 40e-12

    def traffic_energy(self, num_bytes: int) -> float:
        """Dynamic energy for ``num_bytes`` of DRAM traffic."""
        if num_bytes < 0:
            raise ValueError(f"negative byte count: {num_bytes}")
        return num_bytes * self.access_energy_per_byte_j
