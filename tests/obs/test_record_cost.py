"""What a trace record costs, counted rather than timed.

The trace store is built so that the garbage collector cannot see it: a
record is a run of references in one flat list, so recording allocates
no tracked object (no tuple, no dict, no per-record handle that
outlives the call) and a traced run starts no collection an untraced
one would not.  These tests pin that with quantities that repeat
exactly -- tracked-object counts, retained bytes, collection counts --
so they can gate tier-1 where a ratio of two timings cannot:

* the two primitives, driven directly;
* the real stack -- device ops on a five-site MCV cluster, traced
  against untraced -- which also catches an emit site that goes back
  to building a dict or a per-call keys tuple.
"""

import gc
import struct
import tracemalloc

import pytest

from repro.device import ClusterConfig, ReliableDevice, ReplicatedCluster
from repro.obs import Tracer, observe_cluster
from repro.obs.trace import UNSET
from repro.types import SchemeName

WORD = struct.calcsize("P")

#: Tracked objects a measurement itself may leave behind (the list
#: ``gc.get_objects()`` returned, a frame, a bound method): a constant.
SLACK = 8

_REPLY_KEYS = ("category", "src", "dst", "bytes_each")
_DEVICE_KEYS = ("origin", "block", "policy", "retries")
_FIVE_KEYS = ("category", "src", "destinations", "transmissions", "bytes_each")


def _tracked_growth(body):
    """Tracked objects ``body()`` leaves behind, the collector held off."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        body()
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


def _collections():
    return sum(generation["collections"] for generation in gc.get_stats())


def _emit(tracer, count):
    for i in range(count):
        tracer.emit("net.reply", "net", _REPLY_KEYS, "vote-reply", i, 0, 16)


def _open_and_close(tracer, count):
    for i in range(count):
        with tracer.open_span(
            "device.read", "device", _DEVICE_KEYS, 0, i, UNSET, UNSET
        ) as span:
            span.set(retries=i)


class TestPrimitives:
    @pytest.mark.parametrize("record", [_emit, _open_and_close])
    @pytest.mark.parametrize("count", [100, 10_000])
    def test_recording_leaves_no_tracked_object(self, record, count):
        tracer = Tracer()
        record(tracer, 10)  # warm: first-use caches, the log's first block
        assert _tracked_growth(lambda: record(tracer, count)) <= SLACK
        assert len(tracer) == count + 10

    def test_a_five_attribute_record_retains_at_most_16_words(self):
        # A constant clock, so the only memory a record can retain is
        # the store's own (a tick clock makes one float per record).
        tracer = Tracer(clock=lambda: 7.0)
        count = 10_000
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(count):
                tracer.emit(
                    "net.request", "net", _FIVE_KEYS,
                    "vote-request", 0, 4, 1, 16,
                )
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tracer) == count
        assert (after - before) / count <= 16 * WORD

    def test_recording_starts_no_collection(self):
        tracer = Tracer()
        gc.collect()
        before = _collections()
        _emit(tracer, 5_000)
        _open_and_close(tracer, 5_000)
        assert _collections() == before


def _device(tracer=None):
    cluster = ReplicatedCluster(ClusterConfig(
        scheme=SchemeName.VOTING, num_sites=5, num_blocks=32, seed=11,
    ))
    if tracer is not None:
        observe_cluster(cluster, tracer)
    device = ReliableDevice(cluster.protocol)
    _device_ops(device, 64)  # warm: round pool, version tables, meters
    return device


def _device_ops(device, count):
    data = bytes([7]) * device.block_size
    for i in range(count):
        device.write_block(i & 31, data)
        assert device.read_block(i & 31) == data
        if i & 7 == 0:
            blocks = [(i + k) & 31 for k in range(4)]
            device.write_blocks({block: data for block in blocks})
            assert len(device.read_blocks(blocks)) == 4


class TestThroughTheStack:
    def test_tracing_adds_no_tracked_object_per_op(self):
        count = 1_000
        tracer = Tracer()
        traced, plain = _device(tracer), _device()
        recorded = len(tracer)
        plain_growth = _tracked_growth(lambda: _device_ops(plain, count))
        traced_growth = _tracked_growth(lambda: _device_ops(traced, count))
        # Several records per op, from every hot emit site.
        assert len(tracer) - recorded > 10 * count
        assert {"device", "protocol", "net"} <= set(tracer.layers())
        assert abs(traced_growth - plain_growth) <= SLACK

    def test_traced_ops_start_no_collection(self):
        tracer = Tracer()
        device = _device(tracer)
        gc.collect()
        before = _collections()
        _device_ops(device, 2_000)
        assert _collections() == before
        assert len(tracer) > 20_000
