"""Tests for the message bus accounting."""

from __future__ import annotations

from repro.overlay.messages import MessageBus


class TestMessageBus:
    def test_counts_by_kind(self):
        bus = MessageBus()
        bus.add("QueryMessage", 2)
        bus.add("GainReportMessage", 1)
        assert bus.count("QueryMessage") == 2
        assert bus.count("GainReportMessage") == 1
        assert bus.count("GrantMessage") == 0
        assert bus.total() == 3

    def test_counts_accumulate(self):
        bus = MessageBus()
        bus.add("GrantMessage", 2)
        bus.add("GrantMessage", 3)
        assert bus.count("GrantMessage") == 5

    def test_zero_count_records_no_kind(self):
        bus = MessageBus()
        bus.add("RelocationRequestMessage", 0)
        assert bus.snapshot() == {}

    def test_kinds_keep_first_seen_order(self):
        bus = MessageBus()
        for kind in ("GainReportMessage", "RelocationRequestMessage", "GrantMessage"):
            bus.add(kind, 1)
        bus.add("GainReportMessage", 4)
        assert list(bus.snapshot()) == [
            "GainReportMessage",
            "RelocationRequestMessage",
            "GrantMessage",
        ]

    def test_reset_and_snapshot(self):
        bus = MessageBus()
        bus.add("QueryMessage", 1)
        snapshot = bus.snapshot()
        bus.reset()
        assert snapshot == {"QueryMessage": 1}
        assert bus.total() == 0
