"""Property: the shortcuts a site transition takes agree with their
definitions.

Availability after a transition is read from mirrors rather than
recomputed: ``available_sites()`` and the available-copy predicate read
``Site.is_available``, voting's predicate reads ``Site.is_reachable``,
and a repair source's version total is summed in place instead of over
a copied vector.  Over random sequences of crashes, state changes,
writes, witness-style version stamps, quarantines and joiners adopted
into an open view-change window, every shortcut must equal the
definition it replaces, checked after every step.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import VotingProtocol
from repro.device import Site
from repro.membership.view import View
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName, SiteState

N_BLOCKS = 6
BLOCK_SIZE = 8
MAX_SITES = 7

site_index = st.integers(min_value=0, max_value=MAX_SITES - 1)
block = st.integers(min_value=0, max_value=N_BLOCKS - 1)
version = st.integers(min_value=0, max_value=9)
state = st.sampled_from(list(SiteState))

steps = st.lists(st.one_of(
    st.tuples(st.just("crash"), site_index),
    st.tuples(st.just("set_state"), site_index, state),
    st.tuples(st.just("write"), site_index, block,
              st.integers(min_value=1, max_value=9)),
    st.tuples(st.just("set_version"), site_index, block, version),
    st.tuples(st.just("quarantine"), site_index, block,
              st.none() | version),
    st.tuples(st.just("adopt"), state, st.booleans()),
    st.tuples(st.just("commit")),
), max_size=30)


def _group(scheme: SchemeName, n: int, witnesses: int):
    return build_group(
        scheme, n, N_BLOCKS, BLOCK_SIZE, Network(), witnesses=witnesses
    )


def _check(protocol) -> None:
    sites = protocol.sites
    available = [s for s in sites if s.state is SiteState.AVAILABLE]
    assert protocol.available_sites() == available
    if isinstance(protocol, VotingProtocol):
        up = [s for s in sites if s.state is not SiteState.FAILED]
        expected = (
            protocol._decider.read_available([s.site_id for s in up])
            and any(not s.is_witness for s in up)
        )
    else:
        expected = any(s.state is SiteState.AVAILABLE for s in sites)
    assert protocol.is_available() == expected
    for site in sites:
        total = site.store.version_vector().total()
        assert site.store.version_total() == total
        assert site.version_total() == total


def _apply(protocol, step, can_change_view: bool) -> None:
    kind = step[0]
    sites = protocol.sites
    if kind == "adopt":
        if not can_change_view or protocol.in_view_change:
            return
        joiner = Site(max(protocol.site_ids) + 1, N_BLOCKS, BLOCK_SIZE,
                      is_witness=step[2])
        protocol.begin_view_change(protocol.view.with_added(joiner.site_id))
        protocol.adopt_site(joiner)
        joiner.set_state(step[1])
        return
    if kind == "commit":
        if protocol.in_view_change:
            protocol.commit_view_change(protocol.pending_view)
        return
    site = sites[step[1] % len(sites)]
    if kind == "crash":
        site.crash()
    elif kind == "set_state":
        site.set_state(step[2])
    elif kind == "write":
        site.write_block(step[2], bytes([step[3]]) * BLOCK_SIZE, step[3])
    elif kind == "set_version":
        site.store.set_version(step[2], step[3])
    else:
        site.store.quarantine(step[2], step[3])


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(list(SchemeName)),
    n=st.integers(min_value=1, max_value=5),
    witnesses=st.integers(min_value=0, max_value=2),
    script=steps,
)
def test_shortcuts_equal_their_definitions(scheme, n, witnesses, script):
    if scheme is not SchemeName.VOTING:
        witnesses = 0
    # At least one data site; a group with witnesses cannot change view.
    witnesses = min(witnesses, n - 1)
    protocol = _group(scheme, n, witnesses)
    can_change_view = witnesses == 0
    if can_change_view:
        protocol.install_view(View.from_protocol(protocol))
    _check(protocol)
    for step in script:
        _apply(protocol, step, can_change_view)
        _check(protocol)
