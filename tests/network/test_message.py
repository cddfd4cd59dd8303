"""Tests for protocol messages."""

import pytest

from repro.network.message import HEADER_BYTES, VALUE_BYTES, Message, MessageKind


class TestMessage:
    def test_size_accounting(self):
        msg = Message(
            kind=MessageKind.SENSE_REPORT,
            source="node1",
            destination="broker",
            payload_values=5,
        )
        assert msg.size_bytes == HEADER_BYTES + 5 * VALUE_BYTES

    def test_ids_are_unique(self):
        a = Message(MessageKind.QUERY, "a", "b")
        b = Message(MessageKind.QUERY, "a", "b")
        assert a.message_id != b.message_id

    def test_reply_swaps_endpoints(self):
        cmd = Message(
            MessageKind.SENSE_COMMAND, "broker", "node1", timestamp=3.0
        )
        rep = cmd.reply(MessageKind.SENSE_REPORT, {"v": 1.0}, 2)
        assert rep.source == "node1"
        assert rep.destination == "broker"
        assert rep.timestamp == 3.0
        assert rep.payload_values == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Message(MessageKind.QUERY, "", "b")
        with pytest.raises(ValueError):
            Message(MessageKind.QUERY, "a", "")
        with pytest.raises(ValueError):
            Message(MessageKind.QUERY, "a", "b", payload_values=-1)

    def test_kinds_cover_protocol(self):
        names = {k.name for k in MessageKind}
        assert {
            "SENSE_COMMAND",
            "SENSE_REPORT",
            "AGGREGATE",
            "DISSEMINATE",
            "QUERY",
            "QUERY_RESULT",
            "CONTEXT_SHARE",
        } <= names
