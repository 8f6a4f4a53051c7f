"""Batched I/O through the device stack: local, reliable, driver stub.

Covers the vectorized :meth:`read_blocks` / :meth:`write_blocks` path at
every :class:`~repro.device.interface.BlockDevice` layer, including the
retry/round accounting the reliable device adds on top.
"""

import pytest

from repro.device import LocalBlockDevice
from repro.device.driver import DeviceDriverStub
from repro.device.interface import BlockDevice
from repro.device.reliable import ReliableDevice, RetryPolicy
from repro.errors import (
    BlockSizeError,
    DeviceError,
    DeviceUnavailableError,
    ReadOnlyDeviceError,
)
from repro.faults import FaultInjector, HistoryRecorder
from repro.types import SchemeName

from ..conftest import make_cluster


def payloads(device, tags):
    return {b: bytes([t]) * device.block_size for b, t in tags.items()}


class TestDefaultImplementation:
    """The BlockDevice base class makes every device batch-capable."""

    def test_base_class_falls_back_to_loops(self):
        class Minimal(BlockDevice):
            def __init__(self):
                super().__init__()
                self.data = {}

            @property
            def num_blocks(self):
                return 8

            @property
            def block_size(self):
                return 4

            def read_block(self, index):
                return self.data.get(index, bytes(4))

            def write_block(self, index, data):
                self.data[index] = bytes(data)

        dev = Minimal()
        dev.write_blocks({0: b"aaaa", 3: b"bbbb"})
        assert dev.read_blocks([3, 0, 3]) == {3: b"bbbb", 0: b"aaaa"}


class TestLocalDevice:
    def test_batch_roundtrip_and_stats(self):
        dev = LocalBlockDevice(num_blocks=8, block_size=4)
        writes = payloads(dev, {0: 1, 2: 3, 5: 7})
        dev.write_blocks(writes)
        assert dev.read_blocks([0, 2, 5]) == writes
        assert dev.stats.writes == 3
        assert dev.stats.reads == 3
        assert dev.stats.batch_writes == 1
        assert dev.stats.batch_reads == 1

    def test_batch_write_validates_all_sizes_before_writing(self):
        dev = LocalBlockDevice(num_blocks=8, block_size=4)
        dev.write_block(0, b"good")
        with pytest.raises(BlockSizeError):
            dev.write_blocks({0: b"newX", 1: b"too long"})
        # nothing was applied: all-or-nothing validation
        assert dev.read_block(0) == b"good"

    def test_batch_versions_advance_like_sequential(self):
        dev = LocalBlockDevice(num_blocks=4, block_size=4)
        dev.write_blocks(payloads(dev, {0: 1, 1: 1}))
        dev.write_blocks(payloads(dev, {0: 2}))
        assert dev.store.version(0) == 2
        assert dev.store.version(1) == 1


class TestReliableDevice:
    def test_batch_roundtrip_over_replicas(self, scheme):
        cluster = make_cluster(scheme)
        dev = ReliableDevice(cluster.protocol)
        writes = payloads(dev, {b: b + 1 for b in range(6)})
        dev.write_blocks(writes)
        assert dev.read_blocks(list(range(6))) == writes
        assert dev.last_write_version == 1
        assert dev.last_write_versions == {b: 1 for b in range(6)}

    def test_round_counters_show_the_latency_win(self, scheme):
        cluster = make_cluster(scheme)
        dev = ReliableDevice(cluster.protocol)
        writes = payloads(dev, {b: 1 for b in range(8)})
        dev.write_blocks(writes)
        dev.read_blocks(list(range(8)))
        # one protocol round per batch...
        assert dev.fault_stats.write_rounds == 1
        assert dev.fault_stats.read_rounds == 1
        for b in range(8):
            dev.read_block(b)
        # ...vs one per block sequentially
        assert dev.fault_stats.read_rounds == 9
        snap = dev.fault_stats.snapshot()
        assert snap["read_rounds"] == 9
        assert snap["write_rounds"] == 1

    def test_batch_retry_is_per_batch_not_per_block(self):
        cluster = make_cluster(SchemeName.VOTING)
        protocol = cluster.protocol
        dev = ReliableDevice(
            protocol, failover=False,
            retry=RetryPolicy(max_attempts=3, initial_delay=0.0),
        )
        protocol.on_site_failed(1)
        protocol.on_site_failed(2)
        with pytest.raises(DeviceUnavailableError):
            dev.read_blocks([0, 1, 2, 3])
        # 3 attempts for the whole batch, not 3 per block
        assert dev.fault_stats.read_rounds == 3
        assert dev.fault_stats.retries == 2
        assert dev.stats.failed_reads == 1

    def test_degraded_mode_rejects_batches(self):
        cluster = make_cluster(SchemeName.VOTING)
        protocol = cluster.protocol
        dev = ReliableDevice(
            protocol, failover=False, degrade_to_read_only=True,
        )
        protocol.on_site_failed(1)
        protocol.on_site_failed(2)
        with pytest.raises(DeviceUnavailableError):
            dev.write_blocks(payloads(dev, {0: 1}))
        assert dev.degraded
        with pytest.raises(ReadOnlyDeviceError):
            dev.write_blocks(payloads(dev, {0: 1}))
        assert dev.fault_stats.degraded_writes_rejected == 1

    def test_empty_batches_are_noops(self, scheme):
        cluster = make_cluster(scheme)
        dev = ReliableDevice(cluster.protocol)
        assert dev.read_blocks([]) == {}
        dev.write_blocks({})
        assert dev.stats.reads == 0
        assert dev.stats.writes == 0
        assert dev.fault_stats.read_rounds == 0


class TestOneBlockBatchIsTheSingleBlockCall:
    """``write_blocks({b: d})`` and ``write_block(b, d)``, ``read_blocks([b])``
    and ``read_block(b)``, are one operation on the wire.  The file
    system moves a one-block transfer with the single-block calls
    (DESIGN section 6); this is what says it loses nothing by that."""

    SITES = 5
    BLOCK = 3

    def observe(self, scheme, batch, fault):
        """One write and one read of ``BLOCK`` on a fresh five-site
        group, as a batch of one or as the single-block calls, with
        ``fault`` armed before the write; everything an observer of the
        group can tell afterwards."""
        cluster = make_cluster(scheme, num_sites=self.SITES)
        recorder = HistoryRecorder()
        cluster.protocol.recorder = recorder
        injector = FaultInjector(cluster.protocol, recorder=recorder).attach()
        device = cluster.device()
        old, new = payloads(device, {0: 1, 1: 2}).values()
        device.write_block(self.BLOCK, old)
        if fault == "origin crash mid-fan-out":
            injector.arm_mid_write_crash(device.current_origin(), survivors=2)
        elif fault == "one dropped delivery":
            injector.drop_deliveries(2)
        try:
            if batch:
                device.write_blocks({self.BLOCK: new})
                recorder.batch_write_ok(
                    {self.BLOCK: new}, device.last_write_versions
                )
            else:
                device.write_block(self.BLOCK, new)
                recorder.write_ok(self.BLOCK, new, device.last_write_version)
        except DeviceError as exc:
            recorder.write_failed(self.BLOCK, type(exc).__name__)
        if batch:
            got = device.read_blocks([self.BLOCK])
            recorder.batch_read_ok(got)
        else:
            got = {self.BLOCK: device.read_block(self.BLOCK)}
            recorder.read_ok(self.BLOCK, got[self.BLOCK])
        assert recorder.check() == []
        return {
            "read": got,
            "copies": [
                (site.store.version(self.BLOCK), site.store.read(self.BLOCK))
                for site in cluster.sites
            ],
            "rounds": device.fault_stats.snapshot(),
            "transmissions": cluster.meter.total,
            "bytes": cluster.meter.total_bytes,
            # a batch says so in the events the harness records and in
            # the category of a dropped message -- nowhere else
            "events": [
                (e.kind, e.block, e.site, e.value, e.version,
                 e.info.removeprefix("batch").lstrip("-"))
                for e in recorder.events
            ],
        }

    @pytest.mark.parametrize(
        "fault", [None, "origin crash mid-fan-out", "one dropped delivery"]
    )
    def test_same_bytes_versions_rounds_traffic_and_verdict(
        self, scheme, fault
    ):
        single = self.observe(scheme, batch=False, fault=fault)
        batch = self.observe(scheme, batch=True, fault=fault)
        assert batch == single
        kinds = [event[0] for event in single["events"]]
        assert ("torn_write" in kinds) == (fault == "origin crash mid-fan-out")

    def test_what_one_block_costs_on_the_wire(self):
        """The prices the file system's one-block transfers pay."""
        costs = {}
        for scheme in SchemeName:
            cluster = make_cluster(scheme, num_sites=self.SITES)
            device = cluster.device()
            for batch in (False, True):
                before = cluster.meter.snapshot()
                block = payloads(device, {self.BLOCK: 7})
                if batch:
                    device.write_blocks(block)
                else:
                    device.write_block(self.BLOCK, block[self.BLOCK])
                spent = cluster.meter.snapshot().delta(before)
                costs[scheme.short, batch] = (spent.total, spent.total_bytes)
        assert costs == {
            ("MCV", False): (6, 752), ("MCV", True): (6, 752),
            ("AC", False): (5, 680), ("AC", True): (5, 680),
            ("NAC", False): (1, 552), ("NAC", True): (1, 552),
        }


class TestDriverStub:
    def test_forwards_batches_through_cache(self):
        server = LocalBlockDevice(num_blocks=8, block_size=4)
        stub = DeviceDriverStub(server, cache_blocks=4)
        writes = payloads(stub, {0: 1, 1: 2, 2: 3})
        stub.write_blocks(writes)
        assert stub.forwarded == 3
        forwarded = stub.forwarded
        # all three blocks now cached: a batch read forwards nothing
        assert stub.read_blocks([0, 1, 2]) == writes
        assert stub.forwarded == forwarded
        assert stub.stats.batch_reads == 1
        assert stub.stats.batch_writes == 1

    def test_uncached_stub_forwards_every_batch_block(self):
        server = LocalBlockDevice(num_blocks=8, block_size=4)
        stub = DeviceDriverStub(server)
        stub.write_blocks(payloads(stub, {0: 1, 1: 2}))
        stub.read_blocks([0, 1])
        assert stub.forwarded == 4
