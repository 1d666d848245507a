"""Bit-accurate MIPI CSI-2 packet framing for the sensor-host link.

The energy/latency models count payload bytes; this module provides the
actual framing a CSI-2 transmitter applies, so transmitted-size accounting
includes protocol overhead and the host-side depacketizer can verify
integrity the way a real receiver does:

* **long packets**: 4-byte header (data ID, 16-bit word count, 6-bit ECC)
  + payload + 16-bit checksum (CRC-16/X25 per the CSI-2 spec family);
* **short packets** (frame start/end): header only.

The ECC protects the header (single-error correct / double-error detect
over the 24 header bits — modelled as the standard Hamming(30, 24)
syndrome); the CRC detects payload corruption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CsiPacketizer", "LongPacket", "crc16_x25", "header_ecc"]

#: CSI-2 data-type ID we use for RAW10-equivalent sparse payloads.
DATA_TYPE_RAW10 = 0x2B
DATA_TYPE_FRAME_START = 0x00
DATA_TYPE_FRAME_END = 0x01

_ECC_MASKS = (
    0b111100010010110010110111,
    0b111100100101010101011011,
    0b011101001001101001101101,
    0b101110001110001110001110,
    0b110111110000001111110000,
    0b111011111111110000000000,
)


def crc16_x25(data: bytes) -> int:
    """CRC-16 with polynomial 0x8408 (reflected 0x1021), init 0xFFFF."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0x8408
            else:
                crc >>= 1
    return crc ^ 0xFFFF


def header_ecc(header24: int) -> int:
    """6-bit ECC over the 24 header bits (parity-mask construction)."""
    if not 0 <= header24 < (1 << 24):
        raise ValueError("header must be a 24-bit value")
    ecc = 0
    for i, mask in enumerate(_ECC_MASKS):
        parity = bin(header24 & mask).count("1") & 1
        ecc |= parity << i
    return ecc


@dataclass(frozen=True)
class LongPacket:
    """One framed CSI-2 long packet."""

    data_id: int
    payload: bytes
    ecc: int
    checksum: int

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire: 4 header + payload + 2 CRC."""
        return 4 + len(self.payload) + 2


class CsiPacketizer:
    """Packs pixel streams into CSI-2 packets and unpacks/verifies them."""

    def __init__(self, max_payload_bytes: int = 8192):
        if max_payload_bytes < 1:
            raise ValueError("max payload must be positive")
        self.max_payload_bytes = max_payload_bytes

    # -- transmit ----------------------------------------------------------
    def pack_bytes(self, data: bytes) -> list[LongPacket]:
        """Split a byte stream into framed long packets."""
        packets = []
        for start in range(0, max(len(data), 1), self.max_payload_bytes):
            chunk = data[start : start + self.max_payload_bytes]
            if not chunk and packets:
                break
            word_count = len(chunk)
            header = DATA_TYPE_RAW10 | (word_count & 0xFFFF) << 8
            packets.append(
                LongPacket(
                    data_id=DATA_TYPE_RAW10,
                    payload=bytes(chunk),
                    ecc=header_ecc(header),
                    checksum=crc16_x25(bytes(chunk)),
                )
            )
        return packets

    def pack_codes(self, codes: np.ndarray) -> list[LongPacket]:
        """Pack 10-bit pixel codes (RAW10: 4 pixels -> 5 bytes)."""
        codes = np.asarray(codes, dtype=np.int64).ravel()
        if codes.size and (codes.min() < 0 or codes.max() > 1023):
            raise ValueError("codes must fit in 10 bits")
        # Pad to a multiple of 4 pixels.
        pad = (-codes.size) % 4
        padded = np.concatenate([codes, np.zeros(pad, dtype=np.int64)])
        groups = padded.reshape(-1, 4)
        out = bytearray()
        for a, b, c, d in groups:
            out.append(int(a) >> 2)
            out.append(int(b) >> 2)
            out.append(int(c) >> 2)
            out.append(int(d) >> 2)
            out.append(
                (int(a) & 3) | ((int(b) & 3) << 2) | ((int(c) & 3) << 4)
                | ((int(d) & 3) << 6)
            )
        packets = self.pack_bytes(bytes(out))
        # Record the true pixel count in the first packet's data id? The
        # receiver learns it out of band (ROI geometry), as in BlissCam.
        return packets

    # -- receive --------------------------------------------------------------
    def unpack_bytes(self, packets: list[LongPacket]) -> bytes:
        """Verify and concatenate payloads; raises on corruption."""
        out = bytearray()
        for i, packet in enumerate(packets):
            header = packet.data_id | (len(packet.payload) & 0xFFFF) << 8
            if header_ecc(header) != packet.ecc:
                raise ValueError(f"packet {i}: header ECC mismatch")
            if crc16_x25(packet.payload) != packet.checksum:
                raise ValueError(f"packet {i}: payload CRC mismatch")
            out.extend(packet.payload)
        return bytes(out)

    def unpack_codes(self, packets: list[LongPacket], num_pixels: int) -> np.ndarray:
        """Inverse of :meth:`pack_codes` for a known pixel count."""
        data = self.unpack_bytes(packets)
        if len(data) % 5:
            raise ValueError("RAW10 stream length must be a multiple of 5")
        groups = np.frombuffer(data, dtype=np.uint8).reshape(-1, 5).astype(np.int64)
        lsbs = groups[:, 4]
        codes = np.stack(
            [
                (groups[:, 0] << 2) | (lsbs & 3),
                (groups[:, 1] << 2) | ((lsbs >> 2) & 3),
                (groups[:, 2] << 2) | ((lsbs >> 4) & 3),
                (groups[:, 3] << 2) | ((lsbs >> 6) & 3),
            ],
            axis=1,
        ).reshape(-1)
        if num_pixels > codes.size:
            raise ValueError(
                f"requested {num_pixels} pixels but stream has {codes.size}"
            )
        return codes[:num_pixels]

    def wire_bytes(self, packets: list[LongPacket]) -> int:
        """Total on-wire bytes incl. framing (feeds the energy model)."""
        return sum(p.wire_bytes for p in packets)
