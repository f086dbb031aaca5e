"""Tests for unit helpers and packet types."""

from __future__ import annotations

import pytest

from repro.net.addresses import BROADCAST, is_broadcast, validate_node_id
from repro.net.packet import (
    ACK_BYTES,
    CONTROL_BYTES,
    DEFAULT_DATA_REPORT_BYTES,
    AckPacket,
    AtimPacket,
    CoordinatorAnnouncement,
    DataReportPacket,
    Packet,
    PhaseRequestPacket,
    PhaseUpdatePacket,
    SetupPacket,
)
from repro.sim import units


class TestUnits:
    def test_time_conversions(self) -> None:
        assert units.ms(250) == pytest.approx(0.25)
        assert units.us(20) == pytest.approx(2e-5)
        assert units.seconds(3) == 3.0
        assert units.minutes(2) == 120.0

    def test_bandwidth_conversions(self) -> None:
        assert units.mbps(1) == pytest.approx(1e6)
        assert units.kbps(250) == pytest.approx(250e3)

    def test_bytes_to_bits(self) -> None:
        assert units.bytes_to_bits(52) == 416


class TestAddresses:
    def test_broadcast(self) -> None:
        assert is_broadcast(BROADCAST)
        assert not is_broadcast(0)

    def test_validate_node_id(self) -> None:
        assert validate_node_id(3) == 3
        with pytest.raises(ValueError):
            validate_node_id(-2)
        with pytest.raises(TypeError):
            validate_node_id("3")  # type: ignore[arg-type]


class TestPackets:
    def test_packet_ids_are_unique(self) -> None:
        first = Packet(src=0, dst=1)
        second = Packet(src=0, dst=1)
        assert first.packet_id != second.packet_id

    def test_default_data_report_size_matches_paper(self) -> None:
        report = DataReportPacket(src=0, dst=1)
        assert report.size_bytes == DEFAULT_DATA_REPORT_BYTES == 52

    def test_control_packet_sizes(self) -> None:
        assert AckPacket(src=0, dst=1).size_bytes == ACK_BYTES
        assert SetupPacket(src=0, dst=1).size_bytes == CONTROL_BYTES
        assert PhaseRequestPacket(src=0, dst=1).size_bytes == CONTROL_BYTES
        assert PhaseUpdatePacket(src=0, dst=1).size_bytes == CONTROL_BYTES
        assert AtimPacket(src=0, dst=1).size_bytes == CONTROL_BYTES

    def test_broadcast_packets_force_broadcast_destination(self) -> None:
        assert CoordinatorAnnouncement(src=0, dst=5).is_broadcast

    def test_describe(self) -> None:
        report = DataReportPacket(src=3, dst=2, query_id=7, report_index=4, phase_update=1.25)
        description = report.describe()
        assert description["query"] == 7
        assert description["phase_update"] == 1.25
