"""The chaos harness's bookkeeping, pinned to the plainer forms it replaced.

A payload is one ``getrandbits`` call instead of one per byte, and a
history event is a tuple built positionally instead of a frozen
dataclass built from keywords.  Both must be indistinguishable from the
old forms to everything that reads them: the rng stream of a seeded
schedule, the checker, and tests that build events by hand.
"""

import random

import pytest

from repro.faults.chaos import _random_block
from repro.faults.checker import Event, HistoryRecorder


@pytest.mark.parametrize("size", [1, 2, 3, 31, 64, 512])
@pytest.mark.parametrize("seed", [0, 7, 23, 2**64 - 1])
def test_random_block_is_the_bytewise_draw(seed, size):
    fast, slow = random.Random(seed), random.Random(seed)
    fast.random()  # start mid-stream, as a schedule does
    slow.random()
    for _ in range(2):
        assert _random_block(fast, size) == bytes(
            slow.getrandbits(8) for _ in range(size)
        )
        assert fast.getstate() == slow.getstate()


def test_event_keeps_fields_defaults_and_repr():
    assert Event._fields == (
        "kind", "block", "site", "value", "version", "info"
    )
    assert Event._field_defaults == {
        "block": None, "site": None, "value": None, "version": None,
        "info": "",
    }
    event = Event(kind="write_ok", block=3, value=b"ab", version=2)
    assert repr(event) == (
        "Event(kind='write_ok', block=3, site=None, value=b'ab', "
        "version=2, info='')"
    )
    assert event == Event("write_ok", 3, None, b"ab", 2, "")
    assert event != Event(kind="write_ok", block=3, value=b"ab", version=3)
    assert hash(event) == hash(Event("write_ok", 3, None, b"ab", 2))
    assert len({event, Event("write_ok", 3, None, b"ab", 2)}) == 1


def test_event_is_immutable():
    event = Event(kind="read_ok", block=1)
    with pytest.raises(AttributeError):
        event.block = 2


def test_every_recorder_method_fills_the_named_fields():
    rec = HistoryRecorder()
    rec.write_ok(1, bytearray(b"w"), 4)
    rec.torn_write(1, b"t", 5)
    rec.write_failed(1, "SiteDownError")
    rec.read_ok(1, b"w")
    rec.read_failed(1, "CorruptBlockError")
    rec.batch_read_ok({3: b"c", 2: b"b"})
    rec.batch_write_ok({2: b"x"}, {2: 9})
    rec.batch_read_failed([3, 2], "QuorumNotReachedError")
    rec.batch_write_failed([2], "StaleEpochError")
    rec.crash(0)
    rec.crash(1, mid_write=True)
    rec.repair(0)
    rec.corruption_injected(2, 7)
    rec.delivery_dropped(3, "VOTE_REPLY")
    rec.corruption_detected(2, 7)
    rec.block_healed(2, 7)
    rec.site_fenced(4)
    rec.view_change(3, [2, 0, 1], phase="open")
    assert rec.events == [
        Event(kind="write_ok", block=1, value=b"w", version=4),
        Event(kind="torn_write", block=1, value=b"t", version=5),
        Event(kind="write_failed", block=1, info="SiteDownError"),
        Event(kind="read_ok", block=1, value=b"w"),
        Event(kind="read_failed", block=1, info="CorruptBlockError"),
        Event(kind="read_ok", block=2, value=b"b", info="batch"),
        Event(kind="read_ok", block=3, value=b"c", info="batch"),
        Event(kind="write_ok", block=2, value=b"x", version=9,
              info="batch"),
        Event(kind="read_failed", block=2, info="QuorumNotReachedError"),
        Event(kind="read_failed", block=3, info="QuorumNotReachedError"),
        Event(kind="write_failed", block=2, info="StaleEpochError"),
        Event(kind="crash", site=0),
        Event(kind="crash", site=1, info="mid-write"),
        Event(kind="repair", site=0),
        Event(kind="corruption_injected", site=2, block=7),
        Event(kind="delivery_dropped", site=3, info="VOTE_REPLY"),
        Event(kind="corruption_detected", site=2, block=7),
        Event(kind="block_healed", site=2, block=7),
        Event(kind="site_fenced", site=4),
        Event(kind="view_change", version=3, info="open:0,1,2"),
    ]
    assert type(rec.events[0].value) is bytes
