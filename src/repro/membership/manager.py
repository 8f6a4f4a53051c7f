"""Online reconfiguration: drive a view change while traffic flows.

The :class:`MembershipManager` owns the group's epoch sequence.  A
reconfiguration runs in three stages:

1. **open** -- build the successor view (add / remove / replace, each
   re-voted by :meth:`View.majority`) and open the transition window via
   :meth:`~repro.core.protocol.ReplicationProtocol.begin_view_change`.
   Every operational member durably adopts the successor epoch at this
   point, fencing in-flight writes tagged with the old one; new
   operations run under the *joint* quorum rule (voting) or keep writing
   to all available copies while the joiner catches up (AC/NAC).

2. **step** -- bounded, deterministic units of state transfer, called
   from the foreground loop so catch-up genuinely competes with client
   traffic.  For voting, a coordinator sweeps the block space in chunks,
   pushing current copies to not-yet-synced new-view members; a member
   that crashes mid-pass is invalidated (its ``failures`` counter moved)
   and must re-earn synced status.  For the available-copy schemes the
   joiner drains its staleness through ``STATE_TRANSFER`` chunks from
   the best current member and is flipped AVAILABLE by
   :meth:`finish_join` once dry.

3. **commit** -- when the safety condition holds (voting: validly
   synced members carry a new-view write quorum, so every new-view read
   quorum intersects a current copy; AC/NAC: the joiner is available
   and an old-AND-new member survives), removed members are expelled,
   the successor view becomes the committed view, and the window
   closes.

Catch-up traffic is priced by the ordinary size model (``STATE_TRANSFER``
categories) and attributed to the ``"membership"`` operation kind, so
experiments can report what a reconfiguration *costs* next to foreground
reads and writes.

Nothing here draws randomness: given the same call sequence the same
messages flow, which is what keeps seeded chaos campaigns bit-identical
across ``jobs=1`` and ``jobs=N`` runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..device.site import Site
    from ..faults.checker import HistoryRecorder
from ..core.protocol import ReplicationProtocol
from ..errors import CorruptBlockError, MembershipError
from ..net.message import MessageCategory
from ..types import BlockIndex, SchemeName, SiteId, SiteState
from .view import View

__all__ = ["MembershipManager"]


class MembershipManager:
    """Drives epoch-numbered view changes for one replica group.

    Parameters
    ----------
    protocol:
        The live protocol instance (any of the three schemes).  The
        manager installs the epoch-0 view mirroring its current
        membership; voting groups must be plain majority configurations
        (no witnesses, thresholds at half the total weight).
    fencing:
        Whether members reject in-flight writes tagged with an older
        epoch.  Disabling this reproduces the classic quorum-drift
        hazard -- it exists for ablations and the tutorial, never for
        production use.
    catchup_blocks:
        Blocks moved per :meth:`step` chunk.  Smaller values interleave
        catch-up more finely with foreground traffic; larger values
        converge in fewer steps.
    recorder:
        Optional history recorder; begin/commit events land in the
        history so the checker can validate reads *across* epochs.
    """

    def __init__(
        self,
        protocol: ReplicationProtocol,
        fencing: bool = True,
        catchup_blocks: int = 4,
        recorder: Optional['HistoryRecorder'] = None,
    ) -> None:
        if catchup_blocks < 1:
            raise MembershipError("catchup_blocks must be >= 1")
        self._protocol = protocol
        self._recorder = recorder
        self._catchup_blocks = catchup_blocks
        protocol.epoch_fencing = fencing
        view = View.from_protocol(protocol)
        protocol.install_view(view)
        #: Every committed view, epoch order (epoch 0 included).
        self.history: List[View] = [view]
        #: Committed view changes, by kind.
        self.reconfigurations: Dict[str, int] = {
            "add": 0, "remove": 0, "replace": 0,
        }
        self._kind: Optional[str] = None
        self._joiner_id: Optional[SiteId] = None
        # Voting sweep state: block cursor, the members surviving the
        # current pass (id -> failures snapshot at pass start) and the
        # members that completed a pass (id -> snapshot then).
        self._cursor = 0
        self._pass_targets: Optional[Dict[SiteId, int]] = None
        self._synced: Dict[SiteId, int] = {}

    # -- introspection -----------------------------------------------------

    @property
    def protocol(self) -> ReplicationProtocol:
        return self._protocol

    @property
    def view(self) -> View:
        view = self._protocol.view
        assert view is not None  # installed in __init__
        return view

    @property
    def pending_view(self) -> Optional[View]:
        return self._protocol.pending_view

    @property
    def in_transition(self) -> bool:
        return self._protocol.in_view_change

    @property
    def view_changes(self) -> int:
        """Committed view changes so far."""
        return sum(self.reconfigurations.values())

    @property
    def fencing(self) -> bool:
        return self._protocol.epoch_fencing

    # -- stage 1: open a transition window ---------------------------------

    def open_add(self, site: 'Site') -> View:
        """Open a window adding ``site`` to the group."""
        new_view = self.view.with_added(site.site_id)
        return self._open(new_view, "add", joiner=site)

    def open_remove(self, site_id: SiteId) -> View:
        """Open a window removing ``site_id`` from the group."""
        new_view = self.view.with_removed(site_id)
        return self._open(new_view, "remove")

    def open_replace(self, old_id: SiteId, site: 'Site') -> View:
        """Open a window swapping ``old_id`` for ``site`` in one epoch."""
        new_view = self.view.with_replaced(old_id, site.site_id)
        return self._open(new_view, "replace", joiner=site)

    def _open(
        self, new_view: View, kind: str, joiner: Optional['Site'] = None
    ) -> View:
        protocol = self._protocol
        if joiner is not None:
            # Validate up front so a refused open leaves no window
            # half-opened (begin_view_change has already run otherwise).
            geometry = (joiner.store.num_blocks, joiner.store.block_size)
            if geometry != (protocol.num_blocks, protocol.block_size):
                raise MembershipError(
                    f"joining site {joiner.site_id} disagrees on device "
                    f"geometry: {geometry} vs "
                    f"{(protocol.num_blocks, protocol.block_size)}"
                )
        before = protocol.meter.total
        protocol.begin_view_change(new_view)
        if joiner is not None:
            protocol.adopt_site(joiner)
            protocol.joining.add(joiner.site_id)
            if protocol.scheme is not SchemeName.VOTING:
                # Available-copy joiners stay COMATOSE until caught up:
                # an available copy must hold every write, which a fresh
                # site by definition does not yet.
                joiner.set_state(SiteState.COMATOSE)
                if protocol.scheme is SchemeName.AVAILABLE_COPY:
                    joiner.set_was_available(
                        {joiner.site_id}
                        | {s.site_id for s in protocol.available_sites()}
                    )
                else:
                    joiner.set_was_available(set(new_view.members))
            self._joiner_id = joiner.site_id
        else:
            self._joiner_id = None
        self._kind = kind
        self._cursor = 0
        self._pass_targets = None
        self._synced = {}
        if self._recorder is not None:
            self._recorder.view_change(
                new_view.epoch, new_view.sites, phase="begin"
            )
        self._note("membership.begin", new_view, before)
        return new_view

    # -- stage 2: bounded catch-up work ------------------------------------

    def step(self) -> bool:
        """One bounded unit of transition work; True when it committed.

        Safe to call when no window is open (returns False).  All
        network traffic spent inside lands in the ``"membership"``
        operation kind so reconfiguration cost is visible next to
        foreground operations.
        """
        protocol = self._protocol
        if not protocol.in_view_change:
            return False
        before = protocol.meter.total
        if protocol.scheme is SchemeName.VOTING:
            self._step_voting()
        else:
            self._step_available_copy()
        committed = self._maybe_commit()
        spent = protocol.meter.total - before
        protocol.meter.messages_for("membership").add(spent)
        protocol.tracer.event(
            "membership.step",
            layer="membership",
            scheme=protocol.scheme.value,
            epoch=protocol.current_epoch(),
            messages=spent,
            committed=committed,
        )
        return committed

    def finalize(self, max_steps: int = 64) -> bool:
        """Drive the open window to commit; True if it closed.

        Bounded: a window that cannot commit (e.g. the joiner is down
        and nothing repairs it) leaves the group in the joint-quorum
        regime, which is safe -- just report it.
        """
        for _ in range(max_steps):
            if not self._protocol.in_view_change:
                return True
            if self.step():
                return True
        return not self._protocol.in_view_change

    # -- voting: chunked sweep toward synced status ------------------------

    def _step_voting(self) -> None:
        protocol = self._protocol
        old = self.view
        new = protocol.pending_view
        assert new is not None
        if self._pass_targets is None:
            self._cursor = 0
            self._pass_targets = {}
            for site_id in new.sites:
                site = protocol.site(site_id)
                if not site.is_available:
                    continue
                snap = self._synced.get(site_id)
                if snap is not None and snap == site.failures:
                    continue  # still validly synced from an earlier pass
                self._pass_targets[site_id] = site.failures
            if not self._pass_targets:
                return
        coordinator = next(
            (
                s for s in old.sites
                if s in new.members and protocol.site(s).is_available
            ),
            None,
        )
        if coordinator is None:
            return  # no surviving old-and-new member; wait for repairs
        chunk = list(range(
            self._cursor,
            min(self._cursor + self._catchup_blocks, protocol.num_blocks),
        ))
        votes = self._chunk_votes(coordinator, chunk)
        if votes is None:
            return  # no old-view read quorum answered; retry later
        for target_id in sorted(self._pass_targets):
            if target_id not in votes:
                # The target did not vote (crashed or unreachable); it
                # cannot be certified by this pass.
                del self._pass_targets[target_id]
                continue
            if not self._push_chunk(target_id, chunk, votes):
                del self._pass_targets[target_id]
        self._cursor += self._catchup_blocks
        if self._cursor >= protocol.num_blocks:
            # Pass complete: survivors that were neither interrupted by
            # a crash (failures moved) nor lost a push are now synced.
            for target_id, snap in self._pass_targets.items():
                site = protocol.site(target_id)
                if site.is_available and site.failures == snap:
                    self._synced[target_id] = snap
            self._pass_targets = None

    def _chunk_votes(
        self, coordinator: SiteId, chunk: List[BlockIndex]
    ) -> Optional[Dict[SiteId, Dict[BlockIndex, int]]]:
        """One batched vote round over ``chunk``; None without an
        old-view read quorum (the version maxima would be untrustworthy)."""
        protocol = self._protocol

        def vote(node, payload):
            return {b: node.block_version(b) for b in payload}

        replies = protocol.network.broadcast_query(
            coordinator,
            request=MessageCategory.BATCH_VOTE_REQUEST,
            reply=MessageCategory.BATCH_VOTE_REPLY,
            handler=vote,
            payload=tuple(chunk),
        )
        votes: Dict[SiteId, Dict[BlockIndex, int]] = dict(replies)
        origin = protocol.site(coordinator)
        votes[coordinator] = {b: origin.block_version(b) for b in chunk}
        if not self.view.meets_read(set(votes)):
            return None
        return votes

    def _push_chunk(
        self,
        target_id: SiteId,
        chunk: List[BlockIndex],
        votes: Dict[SiteId, Dict[BlockIndex, int]],
    ) -> bool:
        """Bring ``target_id`` current on ``chunk``; False on any miss."""
        protocol = self._protocol
        tops = {b: max(votes[s][b] for s in votes) for b in chunk}
        stale = [b for b in chunk if votes[target_id][b] < tops[b]]
        if not stale:
            return True
        data_ids = set(protocol.data_site_ids)
        by_source: Dict[SiteId, List[BlockIndex]] = {}
        for b in stale:
            holders = sorted(
                s for s, v in votes.items()
                if v[b] == tops[b] and s != target_id and s in data_ids
            )
            if not holders:
                return False
            by_source.setdefault(holders[0], []).append(b)

        def deliver(node, payload):
            for index in sorted(payload):
                blob, v = payload[index]
                node.write_block(index, blob, v)

        for source_id in sorted(by_source):
            holder = protocol.site(source_id)
            shipment: Dict[BlockIndex, Tuple[bytes, int]] = {}
            for b in by_source[source_id]:
                try:
                    shipment[b] = (
                        holder.read_block(b), holder.block_version(b)
                    )
                except CorruptBlockError:
                    protocol.note_corruption(source_id, b)
                    holder.store.quarantine(b)
                    return False
            if not protocol.network.unicast_oneway(
                src=source_id,
                dst=target_id,
                category=MessageCategory.BATCH_BLOCK_TRANSFER,
                handler=deliver,
                payload=shipment,
            ):
                return False
        return True

    # -- available copy: state-transfer chunks for the joiner ---------------

    def _step_available_copy(self) -> None:
        protocol = self._protocol
        joiner_id = self._joiner_id
        if joiner_id is None:
            return  # pure removal: nothing to transfer
        joiner = protocol.site(joiner_id)
        if joiner.state is not SiteState.COMATOSE:
            if joiner.state is SiteState.AVAILABLE:
                # An ordinary repair (or total-failure recovery) already
                # brought it current -- those paths refresh every stale
                # block before flipping the state.
                protocol.joining.discard(joiner_id)
            return  # FAILED: wait for its repair
        new = protocol.pending_view
        assert new is not None
        candidates = [
            protocol.site(s) for s in self.view.sites
            if s in new.members and protocol.site(s).is_available
        ]
        if not candidates:
            return  # no current source; wait for repairs
        source = max(
            candidates, key=lambda s: (s.version_total(), -s.site_id)
        )

        def serve(node, payload):
            vector, limit = payload
            stale = vector.stale_relative_to(node.version_vector())
            blocks: Dict[BlockIndex, Tuple[bytes, int]] = {}
            for b in stale[:limit]:
                try:
                    blocks[b] = (node.read_block(b), node.block_version(b))
                except CorruptBlockError:
                    self._protocol.note_corruption(node.site_id, b)
                    node.store.quarantine(b)
            return node.version_vector(), blocks

        delivered, reply = protocol.network.unicast_query(
            src=joiner_id,
            dst=source.site_id,
            request=MessageCategory.STATE_TRANSFER_REQUEST,
            reply=MessageCategory.STATE_TRANSFER_REPLY,
            handler=serve,
            payload=(joiner.version_vector(), self._catchup_blocks),
        )
        if not delivered:
            return  # transient loss; next step retries
        vector, blocks = reply
        for block, (data, version) in sorted(blocks.items()):
            joiner.write_block(block, data, version)
        remaining = joiner.version_vector().stale_relative_to(vector)
        if not remaining:
            # Dry: flip the joiner to a first-class available copy (one
            # closing version-vector exchange rides inside).
            protocol.finish_join(source, joiner)

    # -- stage 3: commit -----------------------------------------------------

    def _commit_ready(self) -> bool:
        protocol = self._protocol
        new = protocol.pending_view
        if new is None:
            return False
        if protocol.scheme is SchemeName.VOTING:
            valid = {
                s for s, snap in self._synced.items()
                if s in new.members
                and protocol.site(s).is_available
                and protocol.site(s).failures == snap
            }
            return new.meets_write(valid)
        if self._joiner_id is not None:
            joiner = protocol.site(self._joiner_id)
            if not joiner.is_available:
                return False
            if self._joiner_id in protocol.joining:
                return False
        # Continuity: a member of both views must be available, so the
        # new epoch demonstrably carries the committed history forward.
        return any(
            protocol.site(s).is_available
            for s in self.view.sites if s in new.members
        )

    def _maybe_commit(self) -> bool:
        if not self._commit_ready():
            return False
        self._commit()
        return True

    def force_commit(self) -> None:
        """Commit the open window WITHOUT its safety condition.

        Exists for ablation studies and the tutorial's quorum-drift
        reproduction -- this is exactly the unsafe "just change the
        replica set" operation the epoch machinery is designed to
        replace.  Never call it in earnest.
        """
        if not self._protocol.in_view_change:
            raise MembershipError("no view change in flight")
        self._commit()

    def _commit(self) -> None:
        protocol = self._protocol
        before = protocol.meter.total
        old = self.view
        new = protocol.pending_view
        assert new is not None
        for removed in sorted(old.members - new.members):
            protocol.expel_site(removed)
        protocol.commit_view_change(new)
        self.history.append(new)
        if self._kind is not None:
            self.reconfigurations[self._kind] += 1
        if self._recorder is not None:
            self._recorder.view_change(
                new.epoch, new.sites, phase="commit"
            )
        self._note("membership.commit", new, before)
        self._kind = None
        self._joiner_id = None
        self._cursor = 0
        self._pass_targets = None
        self._synced = {}

    # -- plumbing ------------------------------------------------------------

    def _note(self, name: str, view: View, before: int) -> None:
        protocol = self._protocol
        spent = protocol.meter.total - before
        if spent:
            protocol.meter.messages_for("membership").add(spent)
        protocol.tracer.event(
            name,
            layer="membership",
            scheme=protocol.scheme.value,
            epoch=view.epoch,
            sites=list(view.sites),
            messages=spent,
        )
