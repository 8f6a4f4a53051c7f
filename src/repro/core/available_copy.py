"""Available-copy consistency control (Section 3.2, Figure 5).

The rule for writing is *write to all available copies*; since every
available copy receives every write, data may be read from any available
copy -- locally, with **zero network traffic**.  The price is recovery
bookkeeping: after a *total* failure the group must not come back up on a
stale copy, so each site durably stores a *was-available set* ``W_s``
(Definition 3.1) whose closure ``C*(W_s)`` (Definition 3.2) bounds the
sites that could have failed last.  A site repairing while some copy is
still available simply refreshes its stale blocks from it (one version
vector exchange); a site repairing into a total failure stays *comatose*
until every member of the closure has recovered, at which point the
highest-versioned member is provably current and everyone repairs from
it.

Transmission accounting (Section 5, multicast): writes cost ``U_A``
(broadcast plus acknowledgements), reads cost zero, recovery costs
``U_A + 2`` (probe, replies, version-vector request and reply).  With
unique addressing: writes ``n + U_A - 2``, recovery ``n + U_A``.

``track_failures`` selects how aggressively was-available sets follow
failures.  ``True`` (default) assumes surviving sites learn of a failure
when they next communicate and refresh ``W`` accordingly -- this is the
behaviour Section 4.2's Markov model (Figure 7) analyses, where the group
returns to service as soon as the *last* site to fail recovers.  ``False``
updates ``W`` only on writes and repairs, the cheapest variant the paper
sketches ("the availability information [is] brought up to date when a
data block is modified or when a repair operation occurs"); it is safe
but can degrade toward naive behaviour when writes are rare -- the
ablation experiment quantifies exactly that.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Sequence, Set

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..device.site import Site
    from ..membership.view import View
from ..errors import (
    CorruptBlockError,
    NoAvailableCopyError,
    QuorumNotReachedError,
    SiteDownError,
)
from ..net.message import MessageCategory
from ..net.network import NO_REPLY, Network
from ..types import BlockIndex, SchemeName, SiteId, SiteState
from .policy import QuorumPolicy
from .protocol import ReplicationProtocol, updates_of
from .was_available import closure_ready

__all__ = ["AvailableCopyProtocol", "AvailableCopyBase"]


def _probe_answer(node, _payload):
    """A recovery probe's reply: state, was-available set, version total."""
    return node.state, node.was_available, node.version_total()


class AvailableCopyBase(ReplicationProtocol):
    """Machinery shared by the tracked and the naive available-copy schemes.

    Subclasses provide the write fan-out and the total-failure recovery
    rule; reads, ordinary repair and the version-vector exchange are
    identical in both schemes.

    An (RF, R, W) policy degenerates here to pure *availability
    thresholds*: the scheme already writes to all available copies (so
    consistency is independent of W) and reads locally (so R buys no
    freshness), but a policy-configured group refuses to serve a read
    with fewer than R available copies or a write with fewer than W --
    making the three protocols comparable along the same policy axis.
    Hinted handoff and read repair do not apply (full repair on rejoin
    subsumes both).
    """

    def __init__(
        self,
        sites: Sequence['Site'],
        network: Network,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(sites, network)
        if policy is not None and policy.rf != len(sites):
            raise ValueError(
                f"policy replication factor {policy.rf} does not "
                f"match the group size {len(sites)}"
            )
        self.policy = policy
        #: Number of total-failure episodes resolved (observability).
        self.total_failure_recoveries = 0

    def _policy_gate(self, need: int) -> None:
        """Refuse service when fewer than ``need`` copies are available."""
        avail = len(self.available_sites())
        if avail < need:
            raise QuorumNotReachedError(float(avail), float(need))

    # -- read: Section 3.2, "data can then be read from any available copy" --

    def read(self, origin: SiteId, block: BlockIndex) -> bytes:
        """Read locally; available copies are always current.

        Generates no network traffic on the fault-free path (the paper's
        headline advantage of the available-copy schemes for
        read-dominated workloads).
        """
        site = self._serving_site(origin)
        with self._record_read, self._span("read", origin, block):
            return self._read_local(site, block)

    def read_batch(
        self, origin: SiteId, blocks: Sequence[BlockIndex]
    ) -> Dict[BlockIndex, bytes]:
        """Read a whole batch locally in one metered operation.

        Available copies are always current, so a batch read stays a
        purely local affair (zero fault-free network traffic, like
        :meth:`read`); each corrupt block heals individually.
        """
        ordered = list(dict.fromkeys(blocks))
        if not ordered:
            return {}
        site = self._serving_site(origin)
        with self._record_batch_read, \
                self._span("read_batch", origin, batch=len(ordered)):
            return {b: self._read_local(site, b) for b in ordered}

    def _serving_site(self, origin: SiteId) -> "Site":
        """The site a read is initiated at; must be an available copy."""
        site = self.require_origin(origin)
        if site.state is not SiteState.AVAILABLE:
            raise SiteDownError(
                origin, "comatose sites cannot serve reads"
            )
        if self.policy is not None:
            self._policy_gate(self.policy.r)
        return site

    def _read_local(self, site: 'Site', block: BlockIndex) -> bytes:
        """Read ``block`` from the local copy, healing it if corrupt.

        A corrupt local copy is quarantined and self-healed from any
        other copy holding at least the local version -- one
        repair-request/block-transfer exchange.
        """
        try:
            return site.read_block(block)
        except CorruptBlockError:
            origin = site.site_id
            self.note_corruption(origin, block)
            needed = site.block_version(block)
            site.store.quarantine(block)
            if not self._fetch_for(site, block, needed):
                raise CorruptBlockError(
                    block, origin,
                    detail="no intact copy reachable to heal from",
                ) from None
            self.note_heal(origin, block)
            return site.read_block(block)

    def _fetch_for(
        self,
        target: 'Site',
        block: BlockIndex,
        needed: int,
        exclude: Set[SiteId] = frozenset(),
    ) -> bool:
        """Fetch a fresh copy of ``block`` (version >= ``needed``) for
        ``target`` from some peer; returns whether one was obtained.

        Peers whose own copy turns out corrupt are quarantined and
        skipped, so one sweep detects every bad copy it touches.
        """

        def serve(node, payload):
            index, wanted = payload
            if node.block_version(index) < wanted:
                return NO_REPLY
            try:
                data = node.read_block(index)
            except CorruptBlockError:
                self.note_corruption(node.site_id, index)
                node.store.quarantine(index)
                return NO_REPLY
            return data, node.block_version(index)

        skip = set(exclude) | {target.site_id}
        candidates = [
            s.site_id for s in self.available_sites()
            if s.site_id not in skip
        ] + [
            s.site_id for s in self.comatose_sites()
            if s.site_id not in skip
        ]
        for peer in candidates:
            ok, reply = self.network.unicast_query(
                src=target.site_id,
                dst=peer,
                request=MessageCategory.BLOCK_REPAIR_REQUEST,
                reply=MessageCategory.BLOCK_TRANSFER,
                handler=serve,
                payload=(block, needed),
            )
            if ok:
                data, version = reply
                target.write_block(block, data, version)
                return True
        return False

    # -- availability predicate (Section 4's event) ---------------------------

    def is_available(self) -> bool:
        """At least one copy is in the AVAILABLE state."""
        sites = self._sites
        return any([sites[i].is_available for i in self._order])

    # -- write helpers ----------------------------------------------------------

    def _writing_site(self, origin: SiteId) -> "Site":
        """The site a write is initiated at; must be an available copy."""
        site = self.require_origin(origin)
        if site.state is not SiteState.AVAILABLE:
            if self.available_sites():
                raise SiteDownError(
                    origin, "origin is comatose; write elsewhere"
                )
            raise NoAvailableCopyError(
                "no available copy exists (recovering from total failure)"
            )
        if self.policy is not None:
            self._policy_gate(self.policy.w)
        return site

    # -- repair machinery -------------------------------------------------------

    def on_site_repaired(self, site_id: SiteId) -> None:
        """Figures 5 and 6: probe, then take one of the select's arms."""
        site = self.site(site_id)
        start = self.meter.total
        self._sync_epoch(site)
        site.set_state(SiteState.COMATOSE)
        source = self._available_source(site)
        if source is not None:
            # Second select arm: some copy is available -- repair from it.
            self._repair_from(source, site)
            self._rejoined(source, site)
        else:
            # Total failure in progress: stay comatose until the
            # scheme's recovery rule names a provably current copy.
            self._resolve_total_failure()
        self._record_recovery(start)

    def _available_source(self, site: 'Site') -> Optional['Site']:
        """Broadcast a recovery probe; pick the copy to repair from.

        Each reply carries the responder's protocol state, its durable
        was-available set and its scalar version total -- everything the
        recovering site needs to run Figure 5's (or Figure 6's) select.
        Returns the available responder with the highest version total
        (lowest id on ties), None when no copy is available.
        """
        rnd = self._borrow_round()
        try:
            self._network.broadcast_round(
                site.site_id, MessageCategory.RECOVERY_PROBE,
                MessageCategory.RECOVERY_PROBE_REPLY, _probe_answer,
                None, rnd,
            )
            ids, values = rnd.ids, rnd.values
            available = [
                (values[k][2], -ids[k]) for k in range(rnd.count)
                if values[k][0] is SiteState.AVAILABLE
            ]
        finally:
            self._release_round(rnd)
        return self.site(-max(available)[1]) if available else None

    def _rejoined(self, source: 'Site', target: 'Site') -> None:
        """Scheme bookkeeping after ``target`` repaired from ``source``."""

    @abc.abstractmethod
    def _resolve_total_failure(self) -> None:
        """First select arm: the scheme's total-failure recovery rule."""

    def _repair_from(self, source: 'Site', target: 'Site') -> None:
        """Version-vector exchange of Figure 5: refresh stale blocks.

        ``target`` sends its version vector; ``source`` replies with the
        correct vector plus copies of every block modified while
        ``target`` was down.  Two transmissions, as Section 5.1 counts.

        Stale blocks whose copy at the source is corrupt are omitted
        from the reply (the source quarantines them); the target fetches
        those from another peer, or -- when no intact copy exists
        anywhere -- quarantines its own stale copy at the correct
        version rather than silently serving outdated data.
        """
        before = target.version_vector()
        delivered, reply = False, None
        for _ in range(3):  # rides out transient delivery loss
            delivered, reply = self.network.unicast_query(
                src=target.site_id,
                dst=source.site_id,
                request=MessageCategory.VERSION_VECTOR_REQUEST,
                reply=MessageCategory.VERSION_VECTOR_REPLY,
                handler=self._serve_vector,
                payload=before,
            )
            if delivered:
                break
        if not delivered:
            raise SiteDownError(source.site_id, "repair source vanished")
        vector, blocks, _corrupt = reply
        if blocks:  # empty whenever the target missed no write
            target.apply(updates_of(blocks))
        missing = [
            b for b in before.stale_relative_to(vector) if b not in blocks
        ]
        for block in missing:
            needed = vector.get(block)
            if not self._fetch_for(target, block, needed,
                                   exclude={source.site_id}):
                target.store.quarantine(block, needed)
        target.set_state(SiteState.AVAILABLE)

    # -- dynamic membership ---------------------------------------------------

    def admit_joiner(self, site: 'Site', new_view: 'View') -> None:
        """Adopt a joiner and hold it COMATOSE until it is caught up: an
        available copy must hold every write, which a fresh site by
        definition does not yet."""
        super().admit_joiner(site, new_view)
        site.set_state(SiteState.COMATOSE)

    def finish_join(self, source: 'Site', joiner: 'Site') -> None:
        """Flip a caught-up joiner AVAILABLE.

        The membership manager calls this once the joiner's state
        transfer has drained; a final version-vector exchange from
        ``source`` closes any window between the last transfer chunk and
        now, after which the joiner is an available copy like any other.
        """
        self._repair_from(source, joiner)
        self.joining.discard(joiner.site_id)
        self._rejoined(source, joiner)

    def transfer_chunk(
        self, source: 'Site', joiner: 'Site', limit: int
    ) -> None:
        """One bounded chunk of a joiner's state transfer.

        The joiner sends its version vector and ``source`` replies with
        its own vector plus at most ``limit`` of the blocks the joiner
        is stale on (:meth:`_serve_vector`).  A lost request or reply
        moves nothing; the next chunk retries.  Once the joiner lags
        ``source`` on nothing, :meth:`finish_join` flips it AVAILABLE.
        """
        delivered, reply = self.network.unicast_query(
            src=joiner.site_id,
            dst=source.site_id,
            request=MessageCategory.STATE_TRANSFER_REQUEST,
            reply=MessageCategory.STATE_TRANSFER_REPLY,
            handler=self._serve_transfer,
            payload=(joiner.version_vector(), limit),
        )
        if not delivered:
            return
        joiner.apply(updates_of(reply.blocks))
        if not joiner.version_vector().stale_relative_to(reply.vector):
            self.finish_join(source, joiner)

    def _serve_transfer(self, node: 'Site', request):
        """STATE_TRANSFER_REQUEST: :meth:`_serve_vector` capped at the
        request's ``(vector, limit)`` block limit."""
        return self._serve_vector(node, *request)

    # -- invariant (exercised by tests) ------------------------------------------

    def check_invariants(self) -> None:
        """Assert the structural invariants of available-copy schemes.

        * Comatose sites exist only while no copy is available (they are
          created exclusively by recovery from a total failure) -- with
          one exception: a *joining* site is deliberately held COMATOSE
          while its state transfer runs, alongside available members.
        * All available copies hold identical version vectors (every
          available copy received every write).
        """
        available = self.available_sites()
        comatose = [
            s for s in self.comatose_sites()
            if s.site_id not in self.joining
        ]
        if comatose and available:
            raise AssertionError(
                f"comatose sites {[s.site_id for s in comatose]} coexist "
                f"with available sites {[s.site_id for s in available]}"
            )
        if available:
            reference = available[0].version_vector()
            for site in available[1:]:
                if site.version_vector() != reference:
                    raise AssertionError(
                        f"available copies diverge: site "
                        f"{available[0].site_id} has {reference}, site "
                        f"{site.site_id} has {site.version_vector()}"
                    )


class AvailableCopyProtocol(AvailableCopyBase):
    """The available-copy scheme with was-available bookkeeping (Figure 5)."""

    scheme = SchemeName.AVAILABLE_COPY

    def __init__(
        self,
        sites: Sequence['Site'],
        network: Network,
        track_failures: bool = True,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(sites, network, policy=policy)
        self._track_failures = track_failures
        everyone = frozenset(self.site_ids)
        for site in self.sites:
            site.was_available = everyone

    @property
    def track_failures(self) -> bool:
        return self._track_failures

    # -- write: "write to all available copies" ---------------------------------

    def write(self, origin: SiteId, block: BlockIndex, data: bytes) -> int:
        site = self._writing_site(origin)
        with self._record_write, self._span("write", origin, block):
            version = site.block_version(block) + 1
            self._write_all(
                site, MessageCategory.WRITE_UPDATE,
                MessageCategory.WRITE_ACK, (block, bytes(data), version),
            )
            return version

    def write_batch(
        self, origin: SiteId, updates: Mapping[BlockIndex, bytes]
    ) -> Dict[BlockIndex, int]:
        """Write a whole batch to all available copies in ONE fan-out.

        One BATCH_WRITE_UPDATE broadcast carries every block; each
        recipient applies all of them and sends one acknowledgement.
        Version assignment, fencing of silent members and torn-write
        semantics are per block, exactly as in :meth:`write`; a
        mid-fan-out origin crash tears every block of the batch
        individually.
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
                MessageCategory.BATCH_WRITE_ACK,
                {b: (bytes(updates[b]), versions[b]) for b in blocks},
            )
            return versions

    def _write_all(
        self, site: 'Site', category: MessageCategory,
        ack: MessageCategory, content,
    ) -> None:
        """Fan ``content`` out to all available copies, settle, apply.

        ``content`` is one ``(block, contents, version)`` update or a
        batch map.  Every recipient records the recipient set (the
        paper's atomic-broadcast assumption, relaxable by delaying the
        information one write without extra messages); like Section
        5, the wire prices the update alone, so the set is not part of
        the payload.  Acks gather into a pooled round.

        "Write to all available copies" demands every recipient
        actually take the update.  A still-available site whose
        acknowledgement is missing (transient message loss) can no
        longer be assumed current and is fenced out of the group;
        partitioned-away sites are exempt: nothing can be proven about
        them, which is exactly why available-copy schemes are unsafe
        under partitions (Section 6).  A recipient that has adopted a
        newer epoch than this fan-out carries is healthy but refuses
        the update -- applying it would let a write commit against a
        membership that no longer holds -- so the write is torn and
        must be retried under the new epoch.
        """
        origin = site.site_id
        network = self._network
        recipients = frozenset([s.site_id for s in self.available_sites()])
        updates = updates_of(content)
        epoch_tag = self.current_epoch()
        fenced: List[SiteId] = []

        def apply(node, _payload):
            if node.state is not SiteState.AVAILABLE:
                return NO_REPLY
            if node.epoch > epoch_tag:
                fenced.append(node.site_id)
                return NO_REPLY
            node.apply(updates)
            node.was_available = recipients
            return True

        rnd = self._borrow_round()
        try:
            network.broadcast_round(origin, category, ack, apply, content, rnd)
            if site.state is not SiteState.FAILED:
                silent = recipients.difference(
                    rnd.ids[:rnd.count], fenced, (origin,)
                )
                for peer in sorted(silent):
                    if (self.site(peer).state is SiteState.AVAILABLE
                            and network.can_communicate(origin, peer)):
                        self.fence(peer)
        finally:
            self._release_round(rnd)
        self._settle_write(site, updates, fenced, epoch_tag, short=fenced)
        site.apply(updates)
        site.was_available = recipients

    # -- dynamic membership ---------------------------------------------------

    def admit_joiner(self, site: 'Site', new_view: 'View') -> None:
        """The joiner was available together with itself and every copy
        available now."""
        super().admit_joiner(site, new_view)
        site.was_available = frozenset(
            {site.site_id} | {s.site_id for s in self.available_sites()}
        )

    def _rejoined(self, source: 'Site', target: 'Site') -> None:
        if self._track_failures:
            self._refresh_was_available()
        else:
            self._exchange_was_available(source, target)

    def commit_view_change(self, view: 'View') -> None:
        """Close the window and re-anchor was-available bookkeeping.

        Expelled members must vanish from every ``W`` set (or a later
        total-failure recovery would wait for a site that can never
        rejoin) and the joiner must appear in them (or the closure could
        miss the site that actually failed last).
        """
        super().commit_view_change(view)
        if self._track_failures:
            self._refresh_was_available()
        else:
            members = set(self._order)
            live = {s.site_id for s in self.available_sites()}
            for site in self.available_sites():
                site.was_available = (site.was_available & members) | live

    # -- failure handling ---------------------------------------------------------

    def on_site_failed(self, site_id: SiteId) -> None:
        self.site(site_id).crash()
        if self._track_failures:
            self._refresh_was_available()

    def _refresh_was_available(self) -> None:
        """Record the current available set at every available site.

        Models survivors learning of a failure at their next exchange
        (Section 3.2's relaxation of atomic broadcast); costs no
        additional high-level transmissions in the paper's accounting.
        """
        available = self.available_sites()
        live = frozenset([s.site_id for s in available])
        for site in available:
            site.was_available = live

    # -- repair: Figure 5 ----------------------------------------------------------

    def _exchange_was_available(self, source: 'Site', target: 'Site') -> None:
        """Figure 5's tail: ``W_s <- W_t + {s}``, mirrored at ``t``.

        The source can update its own set locally -- it knows it just
        served the repair -- so no extra transmission is needed.
        """
        merged = source.was_available | {target.site_id}
        target.was_available = merged
        source.was_available = merged

    def _resolve_total_failure(self) -> None:
        """First select arm of Figure 5.

        If some comatose site's closure has fully recovered, its
        highest-versioned member is provably current: mark that member
        available and let every other comatose site repair from it.

        Was-available sets are intersected with the *current* membership
        before the closure runs: a site that was down across a view
        change may durably remember an expelled member, and waiting for
        an expelled site to recover would deadlock the group forever.
        Dropping it is safe -- a view change only commits after a write
        reaches the surviving intersection (so the survivors' refreshed
        ``W`` sets, which the closure chases transitively, name every
        site that could have failed last).
        """
        members_now = set(self._order)
        recovered = {s.site_id for s in self.operational_sites()}
        known = {
            s.site_id: s.was_available & members_now
            for s in self.operational_sites()
        }
        anchor: Optional['Site'] = None
        for site in self.comatose_sites():
            members = closure_ready(
                site.was_available & members_now, known, recovered
            )
            if not members:
                continue
            anchor = max(
                (self.site(m) for m in members),
                key=lambda s: (s.version_total(), -s.site_id),
            )
            break
        if anchor is None:
            return
        anchor.set_state(SiteState.AVAILABLE)
        self.total_failure_recoveries += 1
        for site in self.comatose_sites():
            self._repair_from(anchor, site)
        if self._track_failures:
            self._refresh_was_available()
        else:
            live = {s.site_id for s in self.available_sites()}
            for site in self.available_sites():
                site.was_available = site.was_available | live
