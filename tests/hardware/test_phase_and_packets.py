"""Tests for CSI-2 packet framing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.mipi_packet import (
    CsiPacketizer,
    crc16_x25,
    header_ecc,
)


class TestCrcAndEcc:
    def test_crc_known_vector(self):
        # CRC-16/X25 of "123456789" is 0x906E.
        assert crc16_x25(b"123456789") == 0x906E

    def test_crc_detects_flip(self):
        data = bytes(range(64))
        corrupted = bytes([data[0] ^ 1]) + data[1:]
        assert crc16_x25(data) != crc16_x25(corrupted)

    def test_ecc_changes_with_header(self):
        assert header_ecc(0x00AB12) != header_ecc(0x00AB13)

    def test_ecc_range_check(self):
        with pytest.raises(ValueError):
            header_ecc(1 << 24)


class TestCsiPacketizer:
    @given(
        codes=st.lists(st.integers(0, 1023), min_size=0, max_size=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_codes_roundtrip(self, codes):
        packetizer = CsiPacketizer(max_payload_bytes=128)
        arr = np.array(codes, dtype=np.int64)
        packets = packetizer.pack_codes(arr)
        back = packetizer.unpack_codes(packets, num_pixels=arr.size)
        np.testing.assert_array_equal(back, arr)

    def test_raw10_packing_density(self):
        """RAW10 packs 4 pixels into 5 bytes."""
        packetizer = CsiPacketizer()
        packets = packetizer.pack_codes(np.zeros(400, dtype=np.int64))
        payload = sum(len(p.payload) for p in packets)
        assert payload == 400 * 5 // 4

    def test_corrupted_payload_detected(self):
        packetizer = CsiPacketizer()
        packets = packetizer.pack_bytes(bytes(range(100)))
        bad = packets[0]
        tampered = type(bad)(
            data_id=bad.data_id,
            payload=bytes([bad.payload[0] ^ 0xFF]) + bad.payload[1:],
            ecc=bad.ecc,
            checksum=bad.checksum,
        )
        with pytest.raises(ValueError):
            packetizer.unpack_bytes([tampered])

    def test_corrupted_header_detected(self):
        packetizer = CsiPacketizer()
        packets = packetizer.pack_bytes(bytes(range(10)))
        bad = packets[0]
        tampered = type(bad)(
            data_id=bad.data_id,
            payload=bad.payload + b"\x00",  # word count now wrong
            ecc=bad.ecc,
            checksum=crc16_x25(bad.payload + b"\x00"),
        )
        with pytest.raises(ValueError):
            packetizer.unpack_bytes([tampered])

    def test_large_stream_splits_into_packets(self):
        packetizer = CsiPacketizer(max_payload_bytes=256)
        packets = packetizer.pack_bytes(bytes(1000))
        assert len(packets) == 4
        assert packetizer.unpack_bytes(packets) == bytes(1000)

    def test_wire_overhead_small_for_real_payloads(self):
        """Framing overhead on a BlissCam-sized sparse payload is ~<1 %."""
        packetizer = CsiPacketizer()
        sampled_pixels = 12_400  # ~4.85 % of 640x400
        packets = packetizer.pack_codes(
            np.random.default_rng(0).integers(1, 1024, sampled_pixels)
        )
        payload = sum(len(p.payload) for p in packets)
        overhead = packetizer.wire_bytes(packets) / payload - 1
        assert overhead < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            CsiPacketizer(max_payload_bytes=0)
        with pytest.raises(ValueError):
            CsiPacketizer().pack_codes(np.array([5000]))
        packetizer = CsiPacketizer()
        packets = packetizer.pack_codes(np.arange(4))
        with pytest.raises(ValueError):
            packetizer.unpack_codes(packets, num_pixels=100)
