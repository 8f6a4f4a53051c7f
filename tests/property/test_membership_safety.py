"""Property-based membership safety under random interleavings.

Hypothesis drives random interleavings of reconfigurations (add,
remove, replace), crashes, repairs, catch-up steps and client traffic,
then checks the invariants the epoch machinery promises:

* **vote conservation** -- every committed view is exactly the
  majority re-vote of its membership (equal votes plus the even-group
  tie-breaker), so the total vote is always ``n`` or
  ``n + TIE_BREAKER_WEIGHT``;
* **epoch monotonicity** -- committed epochs advance by exactly one;
* **no quorum drift through a joint window** -- any vote set that
  satisfies BOTH adjacent views intersects every write quorum of each,
  even when the raw views admit disjoint quorums (the hazard is real:
  a deterministic witness shows it);
* **read-latest-write across epochs** -- the history checker accepts
  every interleaving's full read/write history.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.quorum import TIE_BREAKER_WEIGHT
from repro.device.reliable import ReliableDevice, RetryPolicy
from repro.device.site import Site
from repro.errors import DeviceError, MembershipError
from repro.faults import HistoryRecorder
from repro.membership import MembershipManager, View, disjoint_write_quorums
from repro.membership.view import _minimal_write_quorums
from repro.net.network import Network
from repro.schemes import build_group
from repro.types import SchemeName, SiteState

N_START = 4
MIN_SITES = 2
N_BLOCKS = 4
BLOCK_SIZE = 8

ops = st.one_of(
    st.tuples(st.just("add")),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("replace"), st.integers(0, 7)),
    st.tuples(st.just("crash"), st.integers(0, 7)),
    st.tuples(st.just("repair"), st.integers(0, 7)),
    st.tuples(st.just("step")),
    st.tuples(st.just("write"), st.integers(0, N_BLOCKS - 1),
              st.integers(1, 255)),
    st.tuples(st.just("read"), st.integers(0, N_BLOCKS - 1)),
)


def make_group(scheme: SchemeName):
    return build_group(scheme, N_START, N_BLOCKS, BLOCK_SIZE, Network())


class Driver:
    """Applies one random op to a live manager, best effort."""

    def __init__(self, scheme: SchemeName):
        self.protocol = make_group(scheme)
        self.recorder = HistoryRecorder()
        self.protocol.recorder = self.recorder
        self.manager = MembershipManager(
            self.protocol, catchup_blocks=2, recorder=self.recorder
        )
        self.device = ReliableDevice(
            self.protocol,
            retry=RetryPolicy(max_attempts=2, initial_delay=0.0),
        )
        self.next_id = N_START

    def _member(self, index: int):
        members = sorted(self.protocol.site_ids)
        return members[index % len(members)]

    def _spare(self) -> Site:
        site = Site(self.next_id, N_BLOCKS, BLOCK_SIZE)
        self.next_id += 1
        return site

    def apply(self, op) -> None:
        kind = op[0]
        protocol, manager = self.protocol, self.manager
        if kind == "add":
            try:
                manager.open_add(self._spare())
            except MembershipError:
                pass
        elif kind == "remove":
            if len(protocol.site_ids) > MIN_SITES:
                try:
                    manager.open_remove(self._member(op[1]))
                except MembershipError:
                    pass
        elif kind == "replace":
            try:
                manager.open_replace(self._member(op[1]), self._spare())
            except MembershipError:
                pass
        elif kind == "crash":
            victim = self._member(op[1])
            if protocol.site(victim).state is not SiteState.FAILED:
                protocol.on_site_failed(victim)
        elif kind == "repair":
            target = self._member(op[1])
            if protocol.site(target).state is SiteState.FAILED:
                try:
                    protocol.on_site_repaired(target)
                except DeviceError:
                    pass
        elif kind == "step":
            manager.step()
        elif kind == "write":
            value = bytes([op[2]]) * BLOCK_SIZE
            try:
                self.device.write_block(op[1], value)
            except DeviceError as exc:
                self.recorder.write_failed(op[1], type(exc).__name__)
            else:
                self.recorder.write_ok(
                    op[1], value, self.device.last_write_version
                )
        elif kind == "read":
            try:
                value = self.device.read_block(op[1])
            except DeviceError as exc:
                self.recorder.read_failed(op[1], type(exc).__name__)
            else:
                self.recorder.read_ok(op[1], value)

    def settle(self) -> None:
        """Repair everything and drain any open window."""
        for _ in range(4):
            for site_id in list(self.protocol.site_ids):
                if self.protocol.site(site_id).state is SiteState.FAILED:
                    try:
                        self.protocol.on_site_repaired(site_id)
                    except DeviceError:
                        pass
            if self.manager.finalize(max_steps=32):
                break


def assert_view_invariants(history) -> None:
    for earlier, later in zip(history, history[1:]):
        assert later.epoch == earlier.epoch + 1
    # Epoch 0 mirrors the protocol's nominal site weights; every
    # *transition* re-votes the membership by the majority rule.
    for view in history[1:]:
        n = len(view.sites)
        assert view == View.majority(view.epoch, view.sites)
        total = n + (TIE_BREAKER_WEIGHT if n % 2 == 0 else 0.0)
        assert view.total_votes == pytest.approx(total)


def assert_joint_window_closes_drift(history) -> None:
    for old, new in zip(history, history[1:]):
        joint = [
            q for q in _minimal_write_quorums(old)
            if new.meets_write(q)
        ] + [
            q for q in _minimal_write_quorums(new)
            if old.meets_write(q)
        ]
        for joint_quorum in joint:
            for q_old in _minimal_write_quorums(old):
                assert joint_quorum & q_old
            for q_new in _minimal_write_quorums(new):
                assert joint_quorum & q_new


@given(st.lists(ops, min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("scheme", list(SchemeName))
def test_interleavings_preserve_view_invariants(scheme, sequence):
    driver = Driver(scheme)
    for op in sequence:
        driver.apply(op)
    driver.settle()
    history = driver.manager.history
    assert_view_invariants(history)
    assert_joint_window_closes_drift(history)


@given(st.lists(ops, min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("scheme", list(SchemeName))
def test_interleavings_never_violate_read_latest_write(scheme, sequence):
    driver = Driver(scheme)
    for op in sequence:
        driver.apply(op)
    driver.settle()
    violations = driver.recorder.check()
    assert violations == [], violations


def test_the_raw_hazard_is_real():
    """Without the joint window, adjacent majority views really do
    admit disjoint write quorums -- the failure mode all of the above
    exists to prevent."""
    old = View.majority(0, range(5))
    witness = disjoint_write_quorums(old, old.with_removed(0))
    assert witness is not None
    q_old, q_new = witness
    assert not q_old & q_new
