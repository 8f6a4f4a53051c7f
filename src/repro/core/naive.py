"""Naive available copy (Section 3.3, Figure 6).

The naive scheme is available copy with the was-available sets frozen at
``W_s = S`` for every site: no failure information is ever maintained.
Writes are fire-and-forget -- a single broadcast (or ``n - 1``
individually addressed messages), with **no acknowledgements**, which is
what makes it the cheapest writer of all three schemes.  The price is
worst-case recovery: after a total failure the group must wait until
*every* site has recovered before the highest-versioned copy can be
declared current (Figure 8's state diagram has no transition from
``S'_j`` to an available state for ``j <= n - 2``).

The paper's conclusion is that this trade is worth it: for realistic
failure-to-repair ratios (rho well below 0.10) the availability loss is
negligible while the write traffic saving is permanent -- making naive
available copy "the algorithm of choice" for the reliable device.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..device.site import Site
    from ..membership.view import View
from ..net.message import MessageCategory
from ..net.network import Network
from ..types import BlockIndex, SchemeName, SiteId, SiteState
from .available_copy import AvailableCopyBase
from .policy import QuorumPolicy
from .protocol import updates_of

__all__ = ["NaiveAvailableCopyProtocol"]


class NaiveAvailableCopyProtocol(AvailableCopyBase):
    """Available copy without failure bookkeeping (Figure 6)."""

    scheme = SchemeName.NAIVE_AVAILABLE_COPY

    def __init__(
        self,
        sites: Sequence['Site'],
        network: Network,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(sites, network, policy=policy)
        everyone = frozenset(self.site_ids)
        for site in self.sites:
            # W_s is fixed at S; stored once so recovery probes and the
            # closure machinery behave uniformly across schemes.
            site.was_available = everyone

    def admit_joiner(self, site: 'Site', new_view: 'View') -> None:
        """W_s is fixed at S: the joiner's is the successor view."""
        super().admit_joiner(site, new_view)
        site.was_available = frozenset(new_view.members)

    # -- write: one unacknowledged broadcast --------------------------------

    def write(self, origin: SiteId, block: BlockIndex, data: bytes) -> int:
        """Broadcast the new block to all sites; reliable delivery does
        the rest (Section 5.1: one message on a multicast network,
        ``n - 1`` with unique addressing)."""
        site = self._writing_site(origin)
        with self._record_write, self._span("write", origin, block):
            version = site.block_version(block) + 1
            self._write_all(
                site, MessageCategory.WRITE_UPDATE,
                (block, bytes(data), version),
            )
            return version

    def write_batch(
        self, origin: SiteId, updates: Mapping[BlockIndex, bytes]
    ) -> Dict[BlockIndex, int]:
        """Broadcast the whole batch in ONE unacknowledged message.

        The scheme's signature cheapness survives batching: an n-block
        batch still costs a single multicast transmission.  Fencing by
        delivery receipt, per-block version assignment and torn-write
        reporting behave exactly as in :meth:`write`.
        """
        blocks = sorted(updates)
        if not blocks:
            return {}
        site = self._writing_site(origin)
        with self._record_batch_write, \
                self._span("write_batch", origin, batch=len(blocks)):
            versions = {b: site.block_version(b) + 1 for b in blocks}
            self._write_all(
                site, MessageCategory.BATCH_WRITE_UPDATE,
                {b: (bytes(updates[b]), versions[b]) for b in blocks},
            )
            return versions

    def _write_all(
        self, site: 'Site', category: MessageCategory, payload
    ) -> None:
        """Broadcast ``payload`` unacknowledged, settle, apply locally.

        The scheme has no acknowledgements, so enforcing "every
        available copy takes every write" falls to the transport's
        delivery receipts: an available site the reliable broadcast
        could not deliver to (transient message loss, injected faults)
        is fenced -- treated as failed until it runs the ordinary
        repair procedure.  A recipient that has adopted a newer epoch
        than this fan-out carries refuses the update; the write is then
        torn and must retry under the new epoch rather than leave an
        available copy stale.
        """
        origin = site.site_id
        network = self._network
        updates = updates_of(payload)
        epoch_tag = self.current_epoch()
        fenced: List[SiteId] = []

        def apply(node, _payload):
            if node.state is not SiteState.AVAILABLE:
                return
            if node.epoch > epoch_tag:
                fenced.append(node.site_id)
                return
            node.apply(updates)

        delivered = network.broadcast_oneway(
            src=origin, category=category, handler=apply, payload=payload
        )
        if site.state is not SiteState.FAILED:
            heard = {origin, *delivered}
            for peer in self.available_sites():
                if (peer.site_id not in heard
                        and network.can_communicate(origin, peer.site_id)):
                    self.fence(peer.site_id)
        self._settle_write(site, updates, fenced, epoch_tag, short=fenced)
        site.apply(updates)

    # -- dynamic membership ---------------------------------------------------

    def commit_view_change(self, view: 'View') -> None:
        """Close the window and re-freeze ``W_s = S`` at the new ``S``.

        The naive scheme never maintains failure information, so the
        only bookkeeping a view change needs is resetting every
        operational site's frozen was-available set to the new
        membership -- total-failure recovery then waits for exactly the
        *current* members, neither for expelled sites (deadlock) nor
        without the joiner (unsafe).
        """
        super().commit_view_change(view)
        everyone = frozenset(self._order)
        for site in self.operational_sites():
            site.was_available = everyone

    # -- failure handling -------------------------------------------------------

    def on_site_failed(self, site_id: SiteId) -> None:
        self.site(site_id).crash()

    # -- repair: Figure 6 ----------------------------------------------------------

    def _resolve_total_failure(self) -> None:
        """First select arm of Figure 6: wait for *all* sites.

        Only when every site has recovered can the highest-versioned
        copy be known current; it is marked available and every other
        copy repairs from it.
        """
        if len(self.operational_sites()) != self.num_sites:
            return
        anchor = max(
            self.sites, key=lambda s: (s.version_total(), -s.site_id)
        )
        anchor.set_state(SiteState.AVAILABLE)
        self.total_failure_recoveries += 1
        for site in self.comatose_sites():
            self._repair_from(anchor, site)
