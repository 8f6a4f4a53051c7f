"""Majority consensus voting with lazy block recovery (Section 3.1).

The read algorithm (Figure 3) collects votes -- each vote carries the
voter's version number for the requested block and its weight -- and
proceeds only when the gathered weight exceeds the read quorum.  Because
quorum composition guarantees a current copy is present in any quorum, a
stale local copy is simply refreshed from the highest-versioned voter
(one extra block transfer); this *lazy, per-block* recovery is what
block-level replication buys: the scheme never runs a recovery pass when
a site repairs, so voting incurs **no traffic upon recovery** (Section
5.1).

The write algorithm (Figure 4) collects the same votes, takes the maximum
version plus one, and pushes the new block to every site in the quorum,
repairing all operational out-of-date copies as a side effect.

Transmission accounting (Section 5): on a multicast network a read costs
``U`` messages (one vote request plus ``U - 1`` replies; one more if the
local copy was stale) and a write costs ``1 + U`` (votes plus the update
broadcast).  With unique addressing a read costs ``n + U - 2`` (plus one)
and a write ``n + 2U - 3``.  ``U`` is the number of operational sites,
local site included.

An optional *eager repair* mode (``eager_repair=True``) restores the
conventional behaviour of file-level voting schemes -- refreshing every
stale block when a site repairs -- and exists purely as the ablation
baseline for the paper's "no recovery traffic" claim.

**Witnesses.**  Sites flagged ``is_witness`` vote with version numbers
but store no data (Paris, FTCS 1986 -- the paper's reference [10]).
Full-block writes succeed with any quorum (new contents supersede old
ones, so no current copy is needed -- another block-level benefit);
reads additionally require a reachable *data* site holding the quorum's
highest version and raise
:class:`~repro.errors.NoCurrentDataCopyError` otherwise.

**Quorum policies.**  Passing an (RF, R, W)
:class:`~repro.core.policy.QuorumPolicy` replaces the weighted
thresholds with *count-based* ones: a read needs R distinct voters, a
write needs W distinct appliers.  Strict policies (``R + W > RF`` and
``2W > RF``) keep read-latest-write by the same intersection argument
as weighted voting; ``R = 1`` additionally enables a zero-message local
read (strictness then forces ``W = RF``, so a down site observes no
committed writes and its copy is provably current on repair).  Sloppy
policies admit stale reads; the protocol then runs the two classic
mitigations -- hinted handoff (missed updates parked as HINT messages
on fallback sites, replayed on repair) and read repair (a read
observing divergent versions pushes the newest copy to stale voters).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import (
    AbstractSet, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..device.site import Site
    from ..membership.view import View
from ..errors import (
    CorruptBlockError,
    DeviceUnavailableError,
    MembershipError,
    NoCurrentDataCopyError,
    QuorumNotReachedError,
    SiteDownError,
)
from ..net.message import MessageCategory
from ..net.network import Network
from ..types import BlockIndex, SchemeName, SiteId, SiteState
from .policy import QuorumPolicy
from .quorum import CountDecider, JointDecider, QuorumDecider, QuorumSpec
from .protocol import (
    ReplicationProtocol, _batch_vote_handler, _store_handler, updates_of,
)
from .round import QuorumRound

__all__ = ["VotingProtocol"]


# Module-level message handlers: everything they need rides in the
# payload, so no operation builds a closure for them.

def _vote_handler(node, payload):
    """VOTE_REQUEST: answer with the voter's version of the block.

    ``BlockStore.version`` inlined (bounds check + version-dict probe):
    this is the single hottest handler in the repository -- one call
    per voter per read -- and the extra frame is measurable.
    """
    if 0 <= payload < node._num_blocks:
        return node._vget(payload, 0)
    return node.block_version(payload)  # out of range: raise as before


def _park_hint_handler(node, payload):
    """HINT (parking): stash a missed update durably on a fallback site."""
    node.hints.append(payload)


def _take(node, updates):
    """Store a fan-out's ``updates`` at ``node``; a witness records
    their versions only."""
    if node.is_witness:
        for index, _, version, _ in updates:
            node.store.set_version(index, version)
    else:
        node.apply(updates)


def _apply_if_newer(node, payload):
    """HINT (replay) and READ_REPAIR: apply the carried copy unless the
    node already holds a newer one.  Both payloads end in ``(block,
    contents, version)``; a hint is prefixed with its owner."""
    index, blob, version = payload[-3:]
    if node.block_version(index) < version:
        node.write_block(index, blob, version)


#: ``(request, reply, handler)`` of the two vote-collection rounds.  A
#: single-block vote is a version number, a batched one a tuple of
#: versions in request order; apart from the write fan-out's category
#: these are the only things a batch changes on the wire.
_SINGLE = (
    MessageCategory.VOTE_REQUEST,
    MessageCategory.VOTE_REPLY,
    _vote_handler,
)
_BATCH = (
    MessageCategory.BATCH_VOTE_REQUEST,
    MessageCategory.BATCH_VOTE_REPLY,
    _batch_vote_handler,
)


def _votes(rnd: QuorumRound, block: BlockIndex) -> List[int]:
    """The versions voted for ``block``, aligned with ``rnd.ids``.

    A :data:`_SINGLE` round's values are the votes themselves, a
    :data:`_BATCH` round's values are version tuples, read at the
    block's position in ``rnd.request``.  The entry points read the top
    version their own way (``rnd.top`` / a maximum per column); the
    refresh, healing and read-repair paths that need to know *who*
    voted what go through here.
    """
    values = rnd.values[:rnd.count]
    if type(values[0]) is int:
        return values
    i = rnd.request.index(block)
    return [vote[i] for vote in values]


class VotingProtocol(ReplicationProtocol):
    """Weighted majority consensus voting over a replica group.

    Parameters
    ----------
    sites:
        The replica group.  Site weights must match ``spec.weights``
        positionally.
    network:
        The group's network.
    spec:
        Quorum weights and thresholds; defaults to equal-weight majority
        with the paper's tie-breaking adjustment for even groups.
    eager_repair:
        When True, a repairing site immediately refreshes all its stale
        blocks from a current site (ablation baseline; the paper's
        algorithm leaves repair to later reads and writes).
    policy:
        Optional (RF, R, W) quorum policy.  When set, quorum checks
        become count-based (R distinct voters / W distinct appliers)
        instead of weighted; RF must equal the group size and the group
        may not contain witnesses.  Sloppy policies additionally enable
        hinted handoff and read repair (see
        :class:`~repro.core.policy.QuorumPolicy`).
    """

    scheme = SchemeName.VOTING

    def __init__(
        self,
        sites: Sequence['Site'],
        network: Network,
        spec: Optional[QuorumSpec] = None,
        eager_repair: bool = False,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(sites, network)
        if spec is None:
            spec = QuorumSpec.majority(len(sites))
        if spec.num_sites != len(sites):
            raise ValueError(
                f"quorum spec covers {spec.num_sites} sites, "
                f"group has {len(sites)}"
            )
        for index, site in enumerate(self.sites):
            if site.weight != spec.weight_of(index):
                raise ValueError(
                    f"site {site.site_id} weight {site.weight} does not "
                    f"match spec weight {spec.weight_of(index)}"
                )
        if policy is not None:
            if policy.rf != len(sites):
                raise ValueError(
                    f"policy replication factor {policy.rf} does not "
                    f"match the group size {len(sites)}"
                )
            if any(s.is_witness for s in sites):
                raise ValueError(
                    "count-based quorum policies do not support "
                    "witness sites (every replica must store data)"
                )
        self.policy = policy
        #: R = 1: reads are served from the local copy, zero messages.
        self._local_reads = policy is not None and policy.r == 1
        self._spec = spec
        self._eager_repair = eager_repair
        self._data_ids = [s.site_id for s in self.sites if not s.is_witness]
        if not self._data_ids:
            raise ValueError("a voting group needs at least one data site")
        #: Number of stale local copies refreshed lazily during reads.
        self.lazy_repairs = 0
        self._configuration_changed()

    def _configuration_changed(self) -> None:
        """Compile the quorum test of the configuration now in force.

        Runs at construction and after every membership transition
        (install / begin / adopt / expel / commit), the only points the
        membership or the thresholds can change; operations just ask
        ``self._decider``.  An (RF, R, W) policy counts R / W distinct
        members; a transition window demands a quorum under the old AND
        the new view; otherwise the spec decides (a count compare for
        unit weights, a weight sum for weighted specs).
        """
        policy = self.policy
        if policy is not None:
            self._decider: QuorumDecider = CountDecider(
                self._order,
                (policy.r, float(policy.r)),
                (policy.w, float(policy.w)),
            )
        elif self._pending_view is not None:
            self._decider = JointDecider(*(
                QuorumDecider.for_spec(view.sites, view.quorum_spec())
                for view in (self._view, self._pending_view)
            ))
        else:
            self._decider = QuorumDecider.for_spec(self._order, self._spec)

    # -- metadata ---------------------------------------------------------

    @property
    def spec(self) -> QuorumSpec:
        return self._spec

    @property
    def data_site_ids(self) -> List[SiteId]:
        """Sites that store block contents (non-witnesses)."""
        return list(self._data_ids)

    @property
    def witness_ids(self) -> List[SiteId]:
        """Vote-only sites."""
        data_ids = set(self._data_ids)
        return [s for s in self._order if s not in data_ids]

    # -- dynamic membership (joint quorums during the window) -----------------

    def install_view(self, view: 'View') -> None:
        """Adopt the initial view; reject unsupported configurations.

        Dynamic membership re-votes members with the majority rule at
        every epoch, so it requires the group to already be a plain
        majority configuration: no witnesses, thresholds at half the
        total weight, and site weights matching the view's votes.
        Count-based (RF, R, W) policies are likewise unsupported: the
        policy pins RF to the group size, which a view change would
        silently invalidate.
        """
        if self.policy is not None:
            raise MembershipError(
                "dynamic membership is not supported with an "
                "(RF, R, W) quorum policy (the policy pins the "
                "replication factor)"
            )
        if any(s.is_witness for s in self.sites):
            raise MembershipError(
                "dynamic membership does not support witness sites"
            )
        half = self._spec.total_weight / 2.0
        if (self._spec.read_quorum != half
                or self._spec.write_quorum != half):
            raise MembershipError(
                "dynamic membership requires majority quorums "
                f"(spec has r={self._spec.read_quorum:g}, "
                f"w={self._spec.write_quorum:g}, total/2={half:g})"
            )
        for site in self.sites:
            if site.weight != view.vote_of(site.site_id):
                raise MembershipError(
                    f"site {site.site_id} weight {site.weight:g} does "
                    f"not match its view vote "
                    f"{view.vote_of(site.site_id):g}"
                )
        super().install_view(view)

    def commit_view_change(self, view: 'View') -> None:
        """Vote reassignment: the committed view defines the new quorums."""
        self._order = list(view.sites)
        for site_id, vote in zip(view.sites, view.votes):
            self._sites[site_id].set_weight(vote)
        self._spec = view.quorum_spec()
        self._data_ids = [
            s.site_id for s in self.sites if not s.is_witness
        ]
        super().commit_view_change(view)

    # -- phase 1-2: collect votes, decide ------------------------------------

    def _client_site(self, origin: SiteId) -> 'Site':
        site = self.require_origin(origin)
        if site.is_witness:
            raise SiteDownError(origin, "witnesses cannot serve clients")
        return site

    def _collect(
        self, rnd: QuorumRound, site: 'Site', wire, payload, mine,
        shortfall,
    ) -> None:
        """Gather votes into ``rnd`` and require a quorum of them.

        ``wire`` is :data:`_SINGLE` or :data:`_BATCH`; ``mine`` is the
        origin's own vote, appended last.  During a transition window
        the broadcast reaches the union of both views' members, so the
        joint decider sees every reachable voice.  ``shortfall`` is the
        decider's read or write test.
        """
        origin = site.site_id
        request, reply, handler = wire
        rnd.request = payload
        self._network.broadcast_round(
            origin, request, reply, handler, payload, rnd
        )
        rnd.add(origin, mine)
        missed = shortfall(rnd.ids[:rnd.count])
        if missed is not None:
            raise QuorumNotReachedError(*missed)

    # -- Figure 3: READ -------------------------------------------------------

    def read(self, origin: SiteId, block: BlockIndex) -> bytes:
        site = self._client_site(origin)
        local = self._local_reads
        with self._record_read, self._span("read", origin, block, local=local):
            if local:
                return self._read_local(site, block)
            rnd = self._borrow_round()
            try:
                mine = site.block_version(block)
                self._collect(
                    rnd, site, _SINGLE, block, mine,
                    self._decider.read_shortfall,
                )
                top = rnd.top
                if mine < top:
                    self._refresh_from_voters(site, block, rnd, top)
                    self.lazy_repairs += 1
                return self._read_current(site, block, rnd, top)
            finally:
                self._release_round(rnd)

    def read_batch(
        self, origin: SiteId, blocks: Sequence[BlockIndex]
    ) -> Dict[BlockIndex, bytes]:
        """Read a whole batch behind ONE vote-collection round.

        The quorum check covers every block at once (the same voters
        answered for all of them); stale local copies are refreshed with
        one scatter-gather transfer per source site instead of one
        transfer per block.  Per-block semantics -- quorum intersection,
        lazy repair, corruption healing, read repair, the R = 1 local
        read -- are identical to :meth:`read`.
        """
        ordered = tuple(dict.fromkeys(blocks))
        if not ordered:
            return {}
        site = self._client_site(origin)
        local = self._local_reads
        with self._record_batch_read, self._span(
            "read_batch", origin, batch=len(ordered), local=local
        ):
            if local:
                return {b: self._read_local(site, b) for b in ordered}
            rnd = self._borrow_round()
            try:
                mine = _batch_vote_handler(site, ordered)
                self._collect(
                    rnd, site, _BATCH, ordered, mine,
                    self._decider.read_shortfall,
                )
                tops = dict(zip(
                    ordered, map(max, zip(*rnd.values[:rnd.count]))
                ))
                stale = [b for b, v in zip(ordered, mine) if v < tops[b]]
                if stale:
                    self._batch_refresh(site, stale, rnd, tops)
                    self.lazy_repairs += len(stale)
                return {
                    b: self._read_current(site, b, rnd, top)
                    for b, top in tops.items()
                }
            finally:
                self._release_round(rnd)

    def _read_local(self, site: 'Site', block: BlockIndex) -> bytes:
        """R = 1: serve the read from the local copy, zero messages.

        For a *strict* policy R = 1 forces W = RF, so every committed
        write reached this site while it was up and a freshly repaired
        site's copy is provably current.  For a *sloppy* policy the
        local copy may be stale -- the history checker witnesses that.
        A corrupt local copy falls back to vote collection to locate
        and pull an intact peer copy (self-healing, as in Figure 3).
        """
        try:
            return site.read_block(block)
        except CorruptBlockError:
            rnd = self._borrow_round()
            try:
                self._collect(
                    rnd, site, _SINGLE, block, site.block_version(block),
                    self._decider.read_shortfall,
                )
                return self._heal(site, block, rnd, rnd.top)
            finally:
                self._release_round(rnd)

    def _read_current(
        self, site: 'Site', block: BlockIndex, rnd: QuorumRound, top: int
    ) -> bytes:
        """Serve ``block`` from the local copy, now at version ``top``.

        Quorum composition guarantees a current copy exists among the
        voters of ``rnd``, so a corrupt local copy is healed from one
        of them; under a read-repair policy the stale voters this read
        observed are then brought current.
        """
        try:
            data = site.read_block(block)
        except CorruptBlockError:
            data = self._heal(site, block, rnd, top)
        policy = self.policy
        if policy is not None and policy.read_repair:
            self._send_read_repairs(site, block, rnd, top, data)
        return data

    def _heal(
        self, site: 'Site', block: BlockIndex, rnd: QuorumRound, top: int
    ) -> bytes:
        """Replace the corrupt local copy of ``block`` from a voter."""
        self.note_corruption(site.site_id, block)
        site.store.quarantine(block, top)
        self._refresh_from_voters(site, block, rnd, top)
        self.note_heal(site.site_id, block)
        return site.read_block(block)

    def _send_read_repairs(
        self, site: 'Site', block: BlockIndex, rnd: QuorumRound,
        top: int, data: bytes,
    ) -> None:
        """Push the newest copy to the stale voters this read observed.

        Each push is a priced READ_REPAIR unicast applied only if still
        newer on arrival (a concurrent write may have superseded it).
        Costs ride on the read that triggered them.
        """
        for target_id, version in sorted(zip(rnd.ids, _votes(rnd, block))):
            if target_id == site.site_id or version >= top:
                continue
            if self.network.unicast_oneway(
                src=site.site_id,
                dst=target_id,
                category=MessageCategory.READ_REPAIR,
                handler=_apply_if_newer,
                payload=(block, data, top),
            ):
                self.read_repairs += 1

    def _current_holders(
        self, site: 'Site', block: BlockIndex, rnd: QuorumRound, top: int
    ) -> List[SiteId]:
        """The data voters other than ``site`` that reported ``top`` for
        ``block``, in id order; raises when only witnesses did."""
        holders = sorted(
            s for s, v in zip(rnd.ids, _votes(rnd, block))
            if v == top and s != site.site_id and s in self._data_ids
        )
        if not holders:
            raise NoCurrentDataCopyError(
                f"version {top} of block {block} is attested only "
                "by witnesses; no data copy is reachable"
            )
        return holders

    def _refresh_from_voters(
        self, site: 'Site', block: BlockIndex, rnd: QuorumRound, top: int
    ) -> None:
        """Pull the current copy of ``block`` from the best intact voter.

        Tries the data voters holding the quorum's highest version in id
        order; a voter whose own copy turns out corrupt is quarantined
        and skipped, as is one whose block transfer is lost in transit.
        The vote request already carried the reader's version number,
        so a single BLOCK_TRANSFER suffices (the "+1" of Section 5.1).
        Raises :class:`NoCurrentDataCopyError` when only witnesses
        attest ``top`` and :class:`CorruptBlockError` when every data
        copy at ``top`` is corrupt.
        """
        any_intact = False
        for source in self._current_holders(site, block, rnd, top):
            holder = self.site(source)
            try:
                data = holder.read_block(block)
            except CorruptBlockError:
                self.note_corruption(source, block)
                holder.store.quarantine(block)
                continue
            any_intact = True
            if self.network.unicast_oneway(
                src=source,
                dst=site.site_id,
                category=MessageCategory.BLOCK_TRANSFER,
                handler=_store_handler,
                payload=(block, data, holder.block_version(block)),
            ):
                return
        if any_intact:
            # Intact copies exist but no transfer arrived (transient
            # delivery loss) -- the read fails cleanly rather than
            # serving the stale local copy; a retry can succeed.
            raise DeviceUnavailableError(
                f"could not refresh block {block}: every block "
                "transfer from a current copy was lost"
            )
        raise CorruptBlockError(
            block, site.site_id,
            detail=f"every reachable copy at version {top} is corrupt",
        )

    def _batch_refresh(
        self, site: 'Site', stale: Sequence[BlockIndex], rnd: QuorumRound,
        tops: Mapping[BlockIndex, int],
    ) -> None:
        """Refresh all stale blocks with one transfer per source site.

        Blocks are grouped by their best current holder; each holder
        ships its group in a single BATCH_BLOCK_TRANSFER.  Blocks whose
        primary copy turns out corrupt (or whose transfer is dropped)
        fall back to the sequential per-block refresh path, preserving
        its quarantine/heal semantics exactly.
        """
        fallback: List[BlockIndex] = []
        for source_id, group in self._by_best_holder(site, stale, rnd, tops):
            holder = self.site(source_id)
            shipment: Dict[BlockIndex, Tuple[bytes, int]] = {}
            for b in group:
                try:
                    shipment[b] = (
                        holder.read_block(b), holder.block_version(b)
                    )
                except CorruptBlockError:
                    self.note_corruption(source_id, b)
                    holder.store.quarantine(b)
                    fallback.append(b)
            if shipment and not self.network.unicast_oneway(
                src=source_id,
                dst=site.site_id,
                category=MessageCategory.BATCH_BLOCK_TRANSFER,
                handler=_store_handler,
                payload=shipment,
            ):
                fallback.extend(sorted(shipment))
        for b in fallback:
            self._refresh_from_voters(site, b, rnd, tops[b])

    def _by_best_holder(
        self, site: 'Site', stale: Sequence[BlockIndex], rnd: QuorumRound,
        tops: Mapping[BlockIndex, int],
    ) -> List[Tuple[SiteId, List[BlockIndex]]]:
        """``stale`` grouped by best current holder, in holder id order.

        A block's best holder is the first of its
        :meth:`_current_holders`; within a group the blocks keep their
        order in ``stale`` (the sort is stable).
        """
        best = sorted(
            (
                (self._current_holders(site, b, rnd, tops[b])[0], b)
                for b in stale
            ),
            key=itemgetter(0),
        )
        return [
            (source, [b for _, b in pairs])
            for source, pairs in groupby(best, itemgetter(0))
        ]

    # -- membership catch-up: one chunk of the coordinator's sweep ------------

    def sweep_chunk(
        self,
        coordinator: SiteId,
        blocks: Sequence[BlockIndex],
        targets: Sequence[SiteId],
        quorum: Callable[[AbstractSet[SiteId]], bool],
    ) -> Optional[List[SiteId]]:
        """Bring ``targets`` current on ``blocks`` from ``coordinator``.

        One batched vote round (Figure 3's collection, for a whole
        chunk) finds every voter's versions.  Returns None, having
        pushed nothing, when the voters fail ``quorum`` -- the committed
        view's read test, without which the version maxima are
        untrustworthy.  Otherwise each target that voted, in
        ``targets`` order, gets its stale blocks with one
        BATCH_BLOCK_TRANSFER per best holder; the targets that voted and
        received every push are returned.  Unlike a read's
        :meth:`_batch_refresh`, a target is abandoned for the pass on a
        corrupt source copy, a block no data voter holds current, or a
        lost transfer.
        """
        rnd = self._borrow_round()
        try:
            payload = rnd.request = tuple(blocks)
            request, reply, handler = _BATCH
            self._network.broadcast_round(
                coordinator, request, reply, handler, payload, rnd
            )
            rnd.add(coordinator, handler(self.site(coordinator), payload))
            voters = rnd.ids[:rnd.count]
            if not quorum(set(voters)):
                return None
            tops = dict(zip(
                payload, map(max, zip(*rnd.values[:rnd.count]))
            ))
            return [
                target_id for target_id in targets
                if target_id in voters and self._push_current(
                    self.site(target_id),
                    rnd.values[voters.index(target_id)], rnd, tops,
                )
            ]
        finally:
            self._release_round(rnd)

    def _push_current(
        self, site: 'Site', mine: Sequence[int],
        rnd: QuorumRound, tops: Mapping[BlockIndex, int],
    ) -> bool:
        """Push ``site`` every block it voted below ``tops``; False on
        any miss (see :meth:`sweep_chunk`).  ``mine`` is its vote, in
        the order of ``tops``."""
        stale = [b for (b, top), v in zip(tops.items(), mine) if v < top]
        try:
            groups = self._by_best_holder(site, stale, rnd, tops)
        except NoCurrentDataCopyError:
            return False
        for source_id, group in groups:
            holder = self.site(source_id)
            shipment: Dict[BlockIndex, Tuple[bytes, int]] = {}
            for b in group:
                try:
                    shipment[b] = (
                        holder.read_block(b), holder.block_version(b)
                    )
                except CorruptBlockError:
                    self.note_corruption(source_id, b)
                    holder.store.quarantine(b)
                    return False
            if not self.network.unicast_oneway(
                src=source_id,
                dst=site.site_id,
                category=MessageCategory.BATCH_BLOCK_TRANSFER,
                handler=_store_handler,
                payload=shipment,
            ):
                return False
        return True

    # -- Figure 4: WRITE -----------------------------------------------------

    def write(self, origin: SiteId, block: BlockIndex, data: bytes) -> int:
        site = self._client_site(origin)
        with self._record_write, self._span("write", origin, block):
            rnd = self._borrow_round()
            try:
                self._collect(
                    rnd, site, _SINGLE, block, site.block_version(block),
                    self._decider.write_shortfall,
                )
                version = rnd.top + 1
                self._fan_out(
                    site, rnd, MessageCategory.WRITE_UPDATE,
                    (block, bytes(data), version),
                )
                return version
            finally:
                self._release_round(rnd)

    def write_batch(
        self, origin: SiteId, updates: Mapping[BlockIndex, bytes]
    ) -> Dict[BlockIndex, int]:
        """Write a whole batch behind ONE vote round and ONE fan-out.

        Version assignment is per block (each block's quorum maximum
        plus one) and a mid-fan-out origin crash or an insufficient
        applied weight tears *every* block of the batch individually,
        exactly as :meth:`write` tears a single block.  No cross-block
        atomicity is claimed.
        """
        blocks = tuple(sorted(updates))
        if not blocks:
            return {}
        site = self._client_site(origin)
        with self._record_batch_write, \
                self._span("write_batch", origin, batch=len(blocks)):
            rnd = self._borrow_round()
            try:
                self._collect(
                    rnd, site, _BATCH, blocks,
                    _batch_vote_handler(site, blocks),
                    self._decider.write_shortfall,
                )
                versions = {
                    b: top + 1 for b, top in zip(
                        blocks, map(max, zip(*rnd.values[:rnd.count]))
                    )
                }
                self._fan_out(
                    site, rnd, MessageCategory.BATCH_WRITE_UPDATE,
                    {b: (bytes(updates[b]), versions[b]) for b in blocks},
                )
                return versions
            finally:
                self._release_round(rnd)

    def _fan_out(
        self, site: 'Site', rnd: QuorumRound,
        category: MessageCategory, payload,
    ) -> None:
        """Phases 3-5 of a write: fan out, settle, apply locally.

        The update goes to the peers that voted (arrival order; the
        origin's own vote is the round's last entry).  A member that
        has adopted a newer epoch than the one this operation started
        under -- a view change opened between vote collection and
        delivery -- refuses it rather than apply it under quorums that
        no longer hold.  Members that missed the update (delivery loss
        or fence) cannot count toward the write quorum, or quorum
        intersection would admit a stale read: the write stands only if
        the origin plus the members that did apply it still carry one.
        A committed write's missed updates are then parked as hints for
        the down members when the policy asks for it.
        """
        origin = site.site_id
        updates = updates_of(payload)
        peers = rnd.ids[:rnd.count - 1]
        epoch_tag = self.current_epoch()
        fenced: List[SiteId] = []

        def apply(node, _payload):
            if node.epoch > epoch_tag:
                fenced.append(node.site_id)
                return
            _take(node, updates)

        delivered = self._network.broadcast_oneway(
            src=origin,
            category=category,
            handler=apply,
            payload=payload,
            destinations=peers,
        )
        applied = missed = None
        if fenced or len(delivered) != len(peers):
            applied = {origin, *delivered}.difference(fenced)
            missed = self._decider.write_shortfall(applied)
        self._settle_write(site, updates, fenced, epoch_tag, short=missed)
        site.apply(updates)
        policy = self.policy
        if policy is not None and policy.hinted_handoff:
            # None here means nothing was lost or fenced.
            applied = applied or {origin, *delivered}
            for block, blob, version, _ in updates:
                self._park_hints(site, applied, block, blob, version)

    def _park_hints(
        self,
        origin_site: 'Site',
        applied_ids: set,
        block: BlockIndex,
        data: bytes,
        version: int,
    ) -> None:
        """Park a committed write's missed updates for down members.

        Each FAILED member's update is stashed as a hint
        ``(owner, block, data, version)`` on a deterministic fallback
        chosen among the sites that applied the write (owner id modulo
        the fallback count), to be replayed when the owner repairs.
        Parking on the origin itself is a local durable append (no
        message); any other fallback is reached with a priced HINT
        unicast whose cost rides on the write.
        """
        fallbacks = sorted(applied_ids)
        for member_id in self._order:
            if member_id in applied_ids:
                continue
            if self.site(member_id).state is not SiteState.FAILED:
                # An up member that merely missed the delivery is
                # reachable; ordinary lazy repair covers it.
                continue
            holder_id = fallbacks[member_id % len(fallbacks)]
            hint = (member_id, block, data, version)
            if holder_id == origin_site.site_id:
                origin_site.hints.append(hint)
                self.hints_parked += 1
            elif self.network.unicast_oneway(
                src=origin_site.site_id,
                dst=holder_id,
                category=MessageCategory.HINT,
                handler=_park_hint_handler,
                payload=hint,
            ):
                self.hints_parked += 1

    # -- availability & failure handling -----------------------------------------

    def is_available(self) -> bool:
        """A read quorum of up sites exists (equation 1's event).

        With witnesses, at least one *data* site must also be up; this
        matches read availability under write-frequent workloads (every
        write repairs all operational stale copies in its quorum, so any
        up data site is current).
        """
        sites = self._sites
        up = [i for i in self._order if sites[i].is_reachable]
        return (
            self._decider.read_available(up)
            and any(not sites[i].is_witness for i in up)
        )

    def on_site_failed(self, site_id: SiteId) -> None:
        self.site(site_id).crash()

    def on_site_repaired(self, site_id: SiteId) -> None:
        """Repair under voting: rejoin immediately, no recovery traffic.

        Stale blocks are refreshed lazily by later reads and writes --
        the quorum intersection property makes that safe.
        """
        site = self.site(site_id)
        site.set_state(SiteState.AVAILABLE)
        self._sync_epoch(site)
        if self.policy is not None and self.policy.hinted_handoff:
            self._replay_hints(site)
        if self._eager_repair:
            self._eager_refresh(site)

    def _replay_hints(self, target: 'Site') -> None:
        """Deliver the hints parked for a freshly repaired site.

        Every operational fallback replays its hints owned by
        ``target`` as priced HINT unicasts, applied only if still newer
        than the owner's copy.  Delivered hints are dropped; a hint
        whose replay is lost in transit stays parked for the owner's
        next repair.  Replay traffic is attributed to recovery.
        """
        start = self.meter.total
        for holder in self.operational_sites():
            if holder.site_id == target.site_id:
                continue
            hints = holder.hints
            if not hints:
                continue
            keep = []
            for hint in hints:
                if hint[0] != target.site_id:
                    keep.append(hint)
                    continue
                if self.network.unicast_oneway(
                    src=holder.site_id,
                    dst=target.site_id,
                    category=MessageCategory.HINT,
                    handler=_apply_if_newer,
                    payload=hint,
                ):
                    self.hints_replayed += 1
                else:
                    keep.append(hint)
            holder.hints = keep
        if self.meter.total != start:
            self._record_recovery(start)

    def _eager_refresh(self, site: 'Site') -> None:
        """Ablation baseline: refresh every stale block upon repair.

        The same version-vector exchange as available copy's repair
        (Figure 5), priced the same: the reply carries the source's
        vector and every stale block.
        """
        start = self.meter.total
        peers = [
            s for s in self.sites
            if s is not site and s.is_available and not s.is_witness
        ]
        if not peers:
            self._record_recovery(start)
            return
        source = max(peers, key=lambda s: (s.version_total(), -s.site_id))
        delivered, reply = self.network.unicast_query(
            src=site.site_id,
            dst=source.site_id,
            request=MessageCategory.VERSION_VECTOR_REQUEST,
            reply=MessageCategory.VERSION_VECTOR_REPLY,
            handler=self._serve_vector,
            payload=site.version_vector(),
        )
        if delivered:
            _take(site, updates_of(reply.blocks))
        self._record_recovery(start)
