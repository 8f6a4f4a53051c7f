"""Epoch fencing: a view change racing a write fan-out.

The dangerous interleaving: a write captures its epoch tag, starts its
fan-out, and a view change opens *between deliveries*.  Members that
already adopted the successor epoch must reject the stale-tagged update
(the write reports torn and retries under the new epoch) -- otherwise
the write could land on a set of copies that no new-view quorum is
obliged to consult.  These tests drive that exact race through a
delivery interceptor that opens the window after the first delivery.
"""

import pytest

from repro.device.reliable import ReliableDevice, RetryPolicy
from repro.device.site import Site
from repro.errors import (
    DeviceUnavailableError,
    ProtocolError,
    StaleEpochError,
)
from repro.faults import HistoryRecorder
from repro.membership import MembershipManager
from repro.net.network import Network
from repro.schemes import build_group
from repro.types import SchemeName

NUM_BLOCKS = 4
BLOCK_SIZE = 8
N = 5


def fill(value: int) -> bytes:
    return bytes([value]) * BLOCK_SIZE


def build(scheme):
    return build_group(scheme, N, NUM_BLOCKS, BLOCK_SIZE, Network())


class MidFanoutOpener:
    """Delivery interceptor opening a view change after the first
    write-fan-out delivery -- the race fencing exists to win."""

    def __init__(self, open_window):
        self._open_window = open_window
        self.fired = False

    def allow_delivery(self, message, dst):
        return True

    def after_delivery(self, message, dst):
        if not self.fired and message.category.is_write_fanout:
            self.fired = True
            self._open_window()


@pytest.mark.parametrize("scheme", list(SchemeName))
class TestFencedWrite:
    def test_stale_tagged_write_is_fenced_and_torn(self, scheme):
        protocol = build(scheme)
        recorder = HistoryRecorder()
        protocol.recorder = recorder
        manager = MembershipManager(protocol)
        protocol.network.set_interceptor(
            MidFanoutOpener(lambda: manager.open_remove(4))
        )
        with pytest.raises(StaleEpochError):
            protocol.write(0, 1, fill(0x5A))
        assert protocol.epoch_fences > 0
        # The outcome is indeterminate (some copies applied it), so the
        # history must carry it as torn, never as committed.
        assert recorder.count("torn_write") >= 1
        assert recorder.count("write_ok") == 0

    def test_retry_under_new_epoch_succeeds(self, scheme):
        protocol = build(scheme)
        manager = MembershipManager(protocol)
        protocol.network.set_interceptor(
            MidFanoutOpener(lambda: manager.open_remove(4))
        )
        # StaleEpochError is retryable by design: the device's retry
        # loop reissues the write, which now carries the new epoch tag.
        assert issubclass(StaleEpochError, DeviceUnavailableError)
        assert issubclass(StaleEpochError, ProtocolError)
        device = ReliableDevice(
            protocol, retry=RetryPolicy(max_attempts=3, initial_delay=0.0)
        )
        device.write_block(1, fill(0x5A))
        assert device.fault_stats.retries >= 1
        assert manager.finalize()
        for reader in protocol.site_ids:
            assert protocol.read(reader, 1) == fill(0x5A)

    def test_fencing_disabled_lets_the_stale_write_through(
        self, scheme, monkeypatch
    ):
        # Fencing off, planted: no member ever reports a newer epoch.
        monkeypatch.setattr(Site, "get_epoch", lambda site: 0)
        protocol = build(scheme)
        manager = MembershipManager(protocol)
        protocol.network.set_interceptor(
            MidFanoutOpener(lambda: manager.open_remove(4))
        )
        protocol.write(0, 1, fill(0x77))  # no fence, no error
        assert protocol.epoch_fences == 0
