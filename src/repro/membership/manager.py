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
   traffic.  For voting, a coordinator sweeps the block space in chunks
   (:meth:`~repro.core.voting.VotingProtocol.sweep_chunk`), pushing
   current copies to not-yet-synced new-view members; a member that
   crashes mid-pass is invalidated (its ``failures`` counter moved) and
   must re-earn synced status.  For the available-copy schemes the
   joiner drains its staleness through ``STATE_TRANSFER`` chunks from
   the best current member
   (:meth:`~repro.core.available_copy.AvailableCopyBase.transfer_chunk`)
   and is flipped AVAILABLE once dry.  The chunks are protocol methods
   on the protocol's own wire; the manager keeps the window's
   bookkeeping and sends nothing itself.

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

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from ..device.site import Site
    from ..faults.checker import HistoryRecorder
from ..core.protocol import ReplicationProtocol
from ..errors import MembershipError
from ..schemes import SCHEMES
from ..types import SiteId, SiteState
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
        catchup_blocks: int = 4,
        recorder: Optional['HistoryRecorder'] = None,
    ) -> None:
        if catchup_blocks < 1:
            raise MembershipError("catchup_blocks must be >= 1")
        self._protocol = protocol
        self._recorder = recorder
        self._catchup_blocks = catchup_blocks
        self._sweep = SCHEMES[protocol.scheme].sweep
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
            protocol.admit_joiner(joiner, new_view)
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
        if self._sweep:
            self._step_sweep()
        else:
            self._step_transfer()
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

    def _step_sweep(self) -> None:
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
        current = protocol.sweep_chunk(
            coordinator,
            range(
                self._cursor,
                min(self._cursor + self._catchup_blocks, protocol.num_blocks),
            ),
            sorted(self._pass_targets),
            old.meets_read,
        )
        if current is None:
            return  # no old-view read quorum answered; retry later
        for target_id in self._pass_targets.keys() - set(current):
            # The target did not vote (crashed or unreachable) or
            # missed a push; this pass cannot certify it.
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

    # -- available copy: state-transfer chunks for the joiner ---------------

    def _step_transfer(self) -> None:
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
        protocol.transfer_chunk(source, joiner, self._catchup_blocks)

    # -- stage 3: commit -----------------------------------------------------

    def _commit_ready(self) -> bool:
        protocol = self._protocol
        new = protocol.pending_view
        if new is None:
            return False
        if self._sweep:
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
