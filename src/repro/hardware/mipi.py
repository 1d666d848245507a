"""MIPI CSI-2 sensor-host link: energy and latency model.

Calibration anchors from the paper:

* transmitting one byte costs ~100 pJ (Liu et al., ISSCC'22) — Sec. II-C;
* at 4K resolution the per-frame transfer latency alone is ~22 ms and
  exceeds the 15 ms end-to-end budget (Fig. 3).

The bandwidth is modelled as a standard 4-lane D-PHY link; the effective
byte rate is chosen so the 4K point reproduces the paper's 22 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MipiLink", "STANDARD_RESOLUTIONS", "LATENCY_REQUIREMENT_S"]

#: Named resolutions of Fig. 3 -> (height, width).
STANDARD_RESOLUTIONS: dict[str, tuple[int, int]] = {
    "720P": (720, 1280),
    "1080P": (1080, 1920),
    "2K": (1440, 2560),
    "4K": (2160, 3840),
    "8K": (4320, 7680),
}

#: The 15 ms eye-tracking latency requirement line in Fig. 3.
LATENCY_REQUIREMENT_S = 15e-3


@dataclass(frozen=True)
class MipiLink:
    """A MIPI CSI-2 interface with fixed energy/byte and bandwidth."""

    #: Energy to move one byte across the link (paper: ~100 pJ/byte).
    energy_per_byte_j: float = 100e-12
    #: Effective payload bandwidth.  Four D-PHY lanes at 1.0 Gbps with
    #: ~95 % packing efficiency gives ~475 MB/s, which puts a 10-bit 4K
    #: frame at ~22 ms — the paper's Fig. 3 anchor.
    bandwidth_bytes_per_s: float = 475e6
    #: Bits per transmitted pixel (the DPS quantizes to 10 bits).
    bits_per_pixel: int = 10

    def frame_bytes(self, num_pixels: int) -> int:
        """Payload bytes for ``num_pixels`` quantized pixels."""
        if num_pixels < 0:
            raise ValueError(f"negative pixel count: {num_pixels}")
        return (num_pixels * self.bits_per_pixel + 7) // 8

    def transfer_energy(self, num_bytes: int) -> float:
        """Joules to transfer ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError(f"negative byte count: {num_bytes}")
        return num_bytes * self.energy_per_byte_j

    def transfer_latency(self, num_bytes: int) -> float:
        """Seconds to transfer ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError(f"negative byte count: {num_bytes}")
        return num_bytes / self.bandwidth_bytes_per_s

    def frame_latency(self, height: int, width: int) -> float:
        """Per-frame transfer latency at a given resolution (Fig. 3)."""
        return self.transfer_latency(self.frame_bytes(height * width))
