"""Unit tests for the traffic meter."""

import pytest

from repro.net import MessageCategory, TrafficMeter

VOTE_REQUEST = MessageCategory.VOTE_REQUEST


def test_counting_by_category():
    meter = TrafficMeter()
    meter.count_for(MessageCategory.VOTE_REQUEST)
    meter.count_for(MessageCategory.VOTE_REPLY)
    meter.count_for(MessageCategory.VOTE_REPLY)
    assert meter.total == 3
    assert meter.category_count(MessageCategory.VOTE_REPLY) == 2
    assert meter.category_count(MessageCategory.BLOCK_TRANSFER) == 0


def test_multi_transmission_count():
    meter = TrafficMeter()
    meter.count_for(VOTE_REQUEST, transmissions=5)
    assert meter.total == 5


def test_snapshot_delta():
    meter = TrafficMeter()
    meter.count_for(MessageCategory.WRITE_UPDATE)
    before = meter.snapshot()
    meter.count_for(MessageCategory.WRITE_UPDATE)
    meter.count_for(MessageCategory.WRITE_ACK)
    delta = meter.snapshot().delta(before)
    assert delta.total == 2
    assert delta.by_category == {
        MessageCategory.WRITE_UPDATE: 1,
        MessageCategory.WRITE_ACK: 1,
    }


def test_record_attributes_messages_to_operation():
    meter = TrafficMeter()
    with meter.record("write"):
        meter.count_for(VOTE_REQUEST, transmissions=3)
    with meter.record("write"):
        meter.count_for(VOTE_REQUEST, transmissions=5)
    with meter.record("read"):
        pass  # zero-message operation still counts
    assert meter.operations("write") == 2
    assert meter.mean_messages("write") == pytest.approx(4.0)
    assert meter.operations("read") == 1
    assert meter.mean_messages("read") == 0.0


def test_nested_record_rejected():
    meter = TrafficMeter()
    with pytest.raises(RuntimeError):
        with meter.record("write"):
            with meter.record("read"):
                pass


def test_record_releases_on_exception():
    meter = TrafficMeter()
    with pytest.raises(ValueError):
        with meter.record("write"):
            raise ValueError("boom")
    # the aborted operation lands under its own kind, not in the
    # successful-write mean, and a new operation can start
    assert meter.operations("write") == 0
    assert meter.operations("write:aborted") == 1
    with meter.record("read"):
        pass
    assert meter.operations("read") == 1


def test_aborted_operation_does_not_skew_success_means():
    meter = TrafficMeter()
    with meter.record("write"):
        meter.count_for(VOTE_REQUEST, transmissions=4)
    with pytest.raises(RuntimeError):
        with meter.record("write"):
            # an expensive probe phase, then the quorum check fails
            meter.count_for(VOTE_REQUEST, transmissions=10)
            raise RuntimeError("no quorum")
    # the successful mean only averages completed writes ...
    assert meter.operations("write") == 1
    assert meter.mean_messages("write") == pytest.approx(4.0)
    # ... and the aborted attempt's real cost is still visible
    assert meter.operations("write:aborted") == 1
    assert meter.mean_messages("write:aborted") == pytest.approx(10.0)
    assert meter.total == 14


def test_operation_kinds_lists_recorded_kinds():
    meter = TrafficMeter()
    assert meter.operation_kinds() == []
    with meter.record("write"):
        pass
    with pytest.raises(ValueError):
        with meter.record("read"):
            raise ValueError("boom")
    assert meter.operation_kinds() == ["read:aborted", "write"]


def test_reset_clears_everything():
    meter = TrafficMeter()
    meter.count_for(VOTE_REQUEST)
    with meter.record("write"):
        meter.count_for(VOTE_REQUEST)
    meter.reset()
    assert meter.total == 0
    assert meter.operations("write") == 0
    assert meter.mean_messages("write") == 0.0


def test_mean_messages_unknown_kind_is_zero():
    meter = TrafficMeter()
    assert meter.mean_messages("recovery") == 0.0
    assert meter.operations("recovery") == 0


def test_messages_for_a_known_kind_builds_no_new_stat(monkeypatch):
    """Get-then-insert: only the first lookup of a kind constructs."""
    import repro.net.traffic as traffic

    built = []

    class CountingStat(traffic.RunningStat):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(traffic, "RunningStat", CountingStat)
    meter = TrafficMeter()
    first = meter.messages_for("recovery")
    assert len(built) == 1
    assert meter.messages_for("recovery") is first
    assert len(built) == 1
