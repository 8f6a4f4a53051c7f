"""Property-based fault testing against the history checker.

Hypothesis generates random interleavings of writes, crashes (including
armed mid-write crashes that tear the fan-out), delivery drops, silent
corruptions, repairs and reads, applies them to a replica group through
the :class:`~repro.faults.FaultInjector`, and asks the
:class:`~repro.faults.HistoryRecorder` checker to verify the one
guarantee the schemes make: **no successful read ever returns a value
outside the admissible set** (latest committed write, or a still-live
torn write).  Failed operations are fine -- wrong data never is.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.device.reliable import ReliableDevice, RetryPolicy
from repro.errors import DeviceError
from repro.faults import FaultInjector, HistoryRecorder
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName, SiteState

N_SITES = 4
N_BLOCKS = 4
BLOCK_SIZE = 8

sites = st.integers(min_value=0, max_value=N_SITES - 1)
blocks = st.integers(min_value=0, max_value=N_BLOCKS - 1)
values = st.integers(min_value=1, max_value=255)

events = st.one_of(
    st.tuples(st.just("write"), blocks, values),
    st.tuples(st.just("read"), blocks),
    st.tuples(st.just("crash"), sites),
    st.tuples(st.just("mid_write_crash"),
              st.integers(min_value=1, max_value=N_SITES - 2)),
    st.tuples(st.just("drop"), sites,
              st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("corrupt"), sites, blocks),
    st.tuples(st.just("repair"), sites),
)


def fill(value: int) -> bytes:
    return bytes([value]) * BLOCK_SIZE


def make_protocol(scheme, recorder):
    protocol = build_group(scheme, N_SITES, N_BLOCKS, BLOCK_SIZE, Network())
    protocol.recorder = recorder
    return protocol


def apply_history(scheme, history):
    recorder = HistoryRecorder()
    protocol = make_protocol(scheme, recorder)
    injector = FaultInjector(protocol, recorder=recorder).attach()
    device = ReliableDevice(
        protocol, failover=True,
        retry=RetryPolicy(max_attempts=2, initial_delay=0.0),
    )
    for event in history:
        kind = event[0]
        if kind == "write":
            _, block, value = event
            try:
                device.write_block(block, fill(value))
            except DeviceError as exc:
                recorder.write_failed(block, type(exc).__name__)
            else:
                recorder.write_ok(
                    block, fill(value), device.last_write_version
                )
        elif kind == "read":
            _, block = event
            try:
                data = device.read_block(block)
            except DeviceError as exc:
                recorder.read_failed(block, type(exc).__name__)
            else:
                recorder.read_ok(block, data)
        elif kind == "crash":
            injector.crash_site(event[1])
        elif kind == "mid_write_crash":
            try:
                origin = device.current_origin()
            except DeviceError:
                continue
            injector.arm_mid_write_crash(origin, survivors=event[1])
        elif kind == "drop":
            injector.drop_deliveries(event[1], count=event[2])
        elif kind == "corrupt":
            injector.corrupt_block(event[1], event[2])
        elif kind == "repair":
            if protocol.site(event[1]).state is SiteState.FAILED:
                injector.repair_site(event[1])
    # quiescence: stop injecting, recover everything, read every block
    injector.disarm_mid_write_crash()
    injector.detach()
    for site in protocol.sites:
        if site.state is SiteState.FAILED:
            injector.repair_site(site.site_id)
    for block in range(N_BLOCKS):
        try:
            data = device.read_block(block)
        except DeviceError as exc:
            recorder.read_failed(block, type(exc).__name__)
        else:
            recorder.read_ok(block, data)
    return recorder


@pytest.mark.parametrize("scheme", list(SchemeName))
@settings(max_examples=60, deadline=None)
@given(history=st.lists(events, max_size=40))
def test_reads_never_violate_read_latest_write(scheme, history):
    recorder = apply_history(scheme, history)
    violations = recorder.check()
    assert violations == [], "\n".join(str(v) for v in violations)


@pytest.mark.parametrize("scheme", list(SchemeName))
@settings(max_examples=25, deadline=None)
@given(history=st.lists(events, max_size=25))
def test_final_reads_succeed_after_full_recovery(scheme, history):
    """After quiescence every block is readable again (availability
    returns once every site is repaired).

    One honest exception: if *every* copy holding the latest version of
    a block was silently corrupted (the injector can hit all replicas
    while the only current survivor is fenced), the data is genuinely
    unrecoverable and the read must fail with ``CorruptBlockError``
    rather than serve stale bytes -- the consistency property above
    still holds either way.
    """
    recorder = apply_history(scheme, history)
    corrupted = {event[2] for event in history if event[0] == "corrupt"}
    # the final N_BLOCKS read attempts are the quiescent read-back
    tail = [e for e in recorder.events
            if e.kind in ("read_ok", "read_failed")][-N_BLOCKS:]
    for event in tail:
        assert event.kind == "read_ok" or (
            event.info == "CorruptBlockError"
            and event.block in corrupted
        ), event
