"""Property-based testing of the (RF, R, W) quorum policy spectrum.

Hypothesis generates random interleavings of writes, reads, crashes,
delivery drops and repairs against a voting group running under a
quorum policy and checks the spectrum's two-sided contract:

* **strict** policies (``R + W > RF`` and ``2W > RF``) preserve
  read-latest-write exactly like classic weighted voting -- the strict
  checker must report zero violations on every schedule;
* **sloppy** policies may serve stale data, but every anomalous read
  must be *explained*: the sloppy checker classifies it as a
  :class:`~repro.faults.checker.StalenessWitness` over a
  once-legitimate value, never as an unexplained violation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import QuorumPolicy, QuorumSpec, VotingProtocol
from repro.device import Site
from repro.errors import ReproError
from repro.faults import (
    FaultInjector,
    HistoryRecorder,
    check_history_sloppy,
)
from repro.net import Network
from repro.types import SiteState

N_BLOCKS = 4
BLOCK_SIZE = 8

STRICT_POLICIES = [
    QuorumPolicy(4, 1, 4),
    QuorumPolicy(4, 2, 3),
    QuorumPolicy(4, 4, 3),
    QuorumPolicy(3, 2, 2),
]

SLOPPY_POLICIES = [
    QuorumPolicy(4, 1, 1, allow_sloppy=True),
    QuorumPolicy(4, 2, 1, allow_sloppy=True),
    QuorumPolicy(4, 2, 2, allow_sloppy=True),
    QuorumPolicy(4, 1, 1, allow_sloppy=True, hinted_handoff=False),
    QuorumPolicy(4, 2, 1, allow_sloppy=True, read_repair=False),
]


def fill(value: int) -> bytes:
    return bytes([value]) * BLOCK_SIZE


def events_for(rf: int):
    sites = st.integers(min_value=0, max_value=rf - 1)
    blocks = st.integers(min_value=0, max_value=N_BLOCKS - 1)
    values = st.integers(min_value=1, max_value=255)
    return st.one_of(
        st.tuples(st.just("write"), sites, blocks, values),
        st.tuples(st.just("read"), sites, blocks),
        st.tuples(st.just("crash"), sites),
        st.tuples(st.just("drop"), sites,
                  st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("repair"), sites),
    )


def apply_history(policy, history):
    recorder = HistoryRecorder()
    spec = QuorumSpec.majority(policy.rf)
    group = [
        Site(i, N_BLOCKS, BLOCK_SIZE, weight=spec.weight_of(i))
        for i in range(policy.rf)
    ]
    protocol = VotingProtocol(group, Network(), spec=spec, policy=policy)
    protocol.recorder = recorder
    injector = FaultInjector(protocol, recorder=recorder).attach()
    for event in history:
        kind = event[0]
        if kind == "write":
            _, origin, block, value = event
            if protocol.site(origin).state is SiteState.FAILED:
                continue
            try:
                version = protocol.write(origin, block, fill(value))
            except ReproError as exc:
                recorder.write_failed(block, type(exc).__name__)
            else:
                recorder.write_ok(block, fill(value), version)
        elif kind == "read":
            _, origin, block = event
            if protocol.site(origin).state is SiteState.FAILED:
                continue
            try:
                data = protocol.read(origin, block)
            except ReproError as exc:
                recorder.read_failed(block, type(exc).__name__)
            else:
                recorder.read_ok(block, data)
        elif kind == "crash":
            injector.crash_site(event[1])
        elif kind == "drop":
            injector.drop_deliveries(event[1], count=event[2])
        elif kind == "repair":
            if protocol.site(event[1]).state is SiteState.FAILED:
                injector.repair_site(event[1])
    injector.detach()
    return recorder


@pytest.mark.parametrize(
    "policy", STRICT_POLICIES, ids=lambda p: p.describe()
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_strict_policies_preserve_read_latest_write(policy, data):
    history = data.draw(st.lists(events_for(policy.rf), max_size=35))
    recorder = apply_history(policy, history)
    violations = recorder.check()
    assert violations == [], "\n".join(str(v) for v in violations)


@pytest.mark.parametrize(
    "policy", SLOPPY_POLICIES,
    ids=lambda p: "{}-hh{:d}-rr{:d}".format(
        p.describe().split()[0], p.hinted_handoff, p.read_repair
    ),
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sloppy_policies_yield_witnesses_never_violations(policy, data):
    history = data.draw(st.lists(events_for(policy.rf), max_size=35))
    recorder = apply_history(policy, history)
    violations, witnesses = check_history_sloppy(recorder.events)
    assert violations == [], "\n".join(str(v) for v in violations)
    for witness in witnesses:
        # ``==`` is a tie between sibling writes (see the test below).
        assert witness.observed_version <= witness.latest_version


@pytest.mark.parametrize("read_repair", [True, False])
def test_sibling_writes_at_one_version_are_a_lag_zero_witness(read_repair):
    """W < majority: two writes that miss each other commit the same v.

    Sites 1 and 3 are down and the vote request each write sends to
    the other live site is dropped, so both writes reach a write quorum
    of one (the origin itself) at version 1; the read at site 0 then
    sees two copies at version 1 and returns its own sibling.  The
    checker cannot order the two -- it reports the read as a witness
    with ``lag == 0``, never a violation.
    """
    policy = QuorumPolicy(
        4, 2, 1, allow_sloppy=True, read_repair=read_repair
    )
    recorder = apply_history(policy, [
        ("crash", 1), ("crash", 3), ("drop", 0, 1), ("drop", 2, 1),
        ("write", 0, 2, 0x02), ("write", 2, 2, 0x01), ("read", 0, 2),
    ])
    outcomes = [
        (event.kind, event.version, event.value)
        for event in recorder.events
        if event.kind in ("write_ok", "read_ok")
    ]
    assert outcomes == [
        ("write_ok", 1, fill(0x02)),
        ("write_ok", 1, fill(0x01)),
        ("read_ok", None, fill(0x02)),
    ]
    violations, (witness,) = check_history_sloppy(recorder.events)
    assert violations == []
    assert witness.observed == fill(0x02)
    assert witness.observed_version == witness.latest_version == 1
    assert witness.lag == 0
