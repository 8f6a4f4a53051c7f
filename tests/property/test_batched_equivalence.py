"""Property: batched I/O is observably equivalent to sequential I/O.

Two facets, both over random batches and interleavings on all three
consistency schemes:

* **Exact equivalence** -- a batched run and a sequential run of the
  same operation stream return the same bytes (or fail the same way),
  assign the same versions, and leave every replica with identical
  version vectors and contents.  Members crash and repair *between*
  operations and the group may run under an (RF, R, W) policy, where
  the batched operations must also park the same hints, push the same
  read repairs and -- batch for batch of one block -- send the same
  number of messages as the single-block ones.
* **Consistency under faults** -- with crashes (including mid-fan-out),
  delivery drops, corruption and repairs interleaved, batched
  operations never let the history checker observe a read outside the
  admissible set (latest committed write or a still-live torn write),
  and every block is readable again after quiescence.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import QuorumPolicy
from repro.device.reliable import ReliableDevice, RetryPolicy
from repro.errors import DeviceError
from repro.faults import FaultInjector, HistoryRecorder
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName, SiteState

N_SITES = 4
N_BLOCKS = 6
BLOCK_SIZE = 8

sites = st.integers(min_value=0, max_value=N_SITES - 1)
blocks = st.integers(min_value=0, max_value=N_BLOCKS - 1)
values = st.integers(min_value=1, max_value=255)

#: A batched write ({block: value}), a batched read ([blocks]), or a
#: member other than the origin crashing / repairing between operations.
equivalence_steps = st.one_of(
    st.dictionaries(blocks, values, min_size=1, max_size=N_BLOCKS),
    st.lists(blocks, min_size=1, max_size=N_BLOCKS),
    st.tuples(st.sampled_from(["crash", "repair"]),
              st.integers(min_value=1, max_value=N_SITES - 1)),
)

SLOPPY = QuorumPolicy(N_SITES, 2, 2, allow_sloppy=True)
#: Stale members stay stale until a read repairs them.
NO_HANDOFF = QuorumPolicy(
    N_SITES, 2, 2, allow_sloppy=True, hinted_handoff=False
)
#: R = 1: reads are local, zero messages.
READ_ONE = QuorumPolicy(N_SITES, 1, N_SITES)
policies = st.sampled_from([
    None, QuorumPolicy(N_SITES, 2, 3), READ_ONE, SLOPPY, NO_HANDOFF,
])

faulty_events = st.one_of(
    st.tuples(st.just("write_batch"),
              st.dictionaries(blocks, values, min_size=1,
                              max_size=N_BLOCKS)),
    st.tuples(st.just("read_batch"),
              st.lists(blocks, min_size=1, max_size=N_BLOCKS)),
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


def make_protocol(scheme, recorder=None, policy=None):
    protocol = build_group(
        scheme, N_SITES, N_BLOCKS, BLOCK_SIZE, Network(), policy=policy
    )
    protocol.recorder = recorder
    return protocol


def outcome(operation):
    """What ``operation`` returns, or the type of error it fails with."""
    try:
        return operation()
    except DeviceError as exc:
        return type(exc)


@pytest.mark.parametrize("scheme", list(SchemeName))
@settings(max_examples=50, deadline=None)
@given(
    steps=st.lists(equivalence_steps, min_size=1, max_size=12),
    policy=policies,
    one_block=st.booleans(),
)
# The three single-vs-batch divergences the shared operation bodies
# removed: a batched write parked no hint for a down member, a batched
# read pushed no read repair, and an R = 1 batched read paid for a
# vote round.
@example(steps=[("crash", 3), {0: 1}], policy=SLOPPY, one_block=False)
@example(
    steps=[("crash", 3), {0: 1}, ("repair", 3), [0]],
    policy=NO_HANDOFF, one_block=False,
)
@example(steps=[[0]], policy=READ_ONE, one_block=True)
def test_batched_exactly_equals_sequential(scheme, steps, policy, one_block):
    """Same bytes, same versions, same final replica state, same
    hinted-handoff and read-repair activity; with ``one_block`` every
    batch is cut to its first block, and the message totals match too."""
    batched = make_protocol(scheme, policy=policy)
    sequential = make_protocol(scheme, policy=policy)
    for step in steps:
        if isinstance(step, tuple):
            kind, site_id = step
            for protocol in (batched, sequential):
                down = protocol.site(site_id).state is SiteState.FAILED
                if kind == "crash" and not down:
                    protocol.on_site_failed(site_id)
                elif kind == "repair" and down:
                    protocol.on_site_repaired(site_id)
        elif isinstance(step, dict):
            chosen = sorted(step)[:1] if one_block else sorted(step)
            updates = {b: fill(step[b]) for b in chosen}
            versions = outcome(lambda: batched.write_batch(0, updates))
            expected = outcome(lambda: {
                b: sequential.write(0, b, updates[b]) for b in chosen
            })
            assert versions == expected
        else:
            wanted = step[:1] if one_block else step
            got = outcome(lambda: batched.read_batch(0, wanted))
            expected = outcome(lambda: {
                b: sequential.read(0, b) for b in dict.fromkeys(wanted)
            })
            assert got == expected
    for a, b in zip(batched.sites, sequential.sites):
        assert a.version_vector() == b.version_vector()
        for block in range(N_BLOCKS):
            assert a.store.read(block) == b.store.read(block)
    assert batched.hints_parked == sequential.hints_parked
    assert batched.hints_replayed == sequential.hints_replayed
    assert batched.read_repairs == sequential.read_repairs
    if one_block:
        assert batched.meter.total == sequential.meter.total


def apply_batched_history(scheme, history):
    recorder = HistoryRecorder()
    protocol = make_protocol(scheme, recorder)
    injector = FaultInjector(protocol, recorder=recorder).attach()
    device = ReliableDevice(
        protocol, failover=True,
        retry=RetryPolicy(max_attempts=2, initial_delay=0.0),
    )
    for event in history:
        kind = event[0]
        if kind == "write_batch":
            updates = {b: fill(v) for b, v in event[1].items()}
            try:
                device.write_blocks(updates)
            except DeviceError as exc:
                recorder.batch_write_failed(
                    sorted(updates), type(exc).__name__
                )
            else:
                recorder.batch_write_ok(
                    updates, device.last_write_versions
                )
        elif kind == "read_batch":
            try:
                data = device.read_blocks(event[1])
            except DeviceError as exc:
                recorder.batch_read_failed(
                    sorted(set(event[1])), type(exc).__name__
                )
            else:
                recorder.batch_read_ok(data)
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
    try:
        data = device.read_blocks(list(range(N_BLOCKS)))
    except DeviceError:
        # a single unrecoverable block fails the whole batch; fall back
        # to per-block reads so the rest still prove their availability
        for block in range(N_BLOCKS):
            try:
                value = device.read_block(block)
            except DeviceError as exc:
                recorder.read_failed(block, type(exc).__name__)
            else:
                recorder.read_ok(block, value)
    else:
        recorder.batch_read_ok(data)
    return recorder


@pytest.mark.parametrize("scheme", list(SchemeName))
@settings(max_examples=50, deadline=None)
@given(history=st.lists(faulty_events, max_size=30))
def test_batched_ops_never_violate_consistency_under_faults(
    scheme, history
):
    recorder = apply_batched_history(scheme, history)
    violations = recorder.check()
    assert violations == [], "\n".join(str(v) for v in violations)


@pytest.mark.parametrize("scheme", list(SchemeName))
@settings(max_examples=20, deadline=None)
@given(history=st.lists(faulty_events, max_size=20))
def test_batched_quiescent_readback_succeeds(scheme, history):
    """Every block is readable after quiescence -- except a block whose
    current copies were *all* silently corrupted, which must fail with
    ``CorruptBlockError`` instead of serving stale bytes."""
    recorder = apply_batched_history(scheme, history)
    corrupted = {event[2] for event in history if event[0] == "corrupt"}
    tail = [e for e in recorder.events
            if e.kind in ("read_ok", "read_failed")][-N_BLOCKS:]
    for event in tail:
        assert event.kind == "read_ok" or (
            event.info == "CorruptBlockError"
            and event.block in corrupted
        ), event


@settings(max_examples=50, deadline=None)
@given(
    batches=st.lists(
        st.lists(blocks, min_size=1, max_size=2 * N_BLOCKS),
        min_size=1,
        max_size=6,
    )
)
def test_cache_accounting_matches_sequential_with_duplicates(batches):
    """Batched and sequential cache reads agree on every counter.

    Request lists may repeat indices; with capacity covering every
    block, the batched path must book the same reads/hits/misses the
    sequential path would -- a duplicate access is a hit, not a no-op.
    """
    from repro.device import BufferCache, LocalBlockDevice

    def fresh():
        backing = LocalBlockDevice(
            num_blocks=N_BLOCKS, block_size=BLOCK_SIZE
        )
        for i in range(N_BLOCKS):
            backing.write_block(i, fill(i + 1))
        return BufferCache(backing, capacity_blocks=N_BLOCKS)

    batched = fresh()
    sequential = fresh()
    for batch in batches:
        got = batched.read_blocks(batch)
        expected = {}
        for index in batch:
            expected[index] = sequential.read_block(index)
        assert got == expected
    assert batched.stats.reads == sequential.stats.reads
    assert batched.cache_stats.hits == sequential.cache_stats.hits
    assert batched.cache_stats.misses == sequential.cache_stats.misses
    assert batched.cache_stats.accesses == sequential.cache_stats.accesses
