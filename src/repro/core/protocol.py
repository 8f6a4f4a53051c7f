"""Framework shared by the three consistency-control protocols.

A :class:`ReplicationProtocol` manages one replica group: a fixed set of
:class:`~repro.device.site.Site` objects joined by a
:class:`~repro.net.Network`.  It exposes the operations the reliable
device needs (`read`, `write`), the failure/repair entry points driven by
the simulator, and the availability predicate the analysis section
studies (is the replicated block currently accessible?).

Concrete subclasses implement the paper's Figures 3-6:

* :class:`~repro.core.voting.VotingProtocol` (Figures 3-4),
* :class:`~repro.core.available_copy.AvailableCopyProtocol` (Figure 5),
* :class:`~repro.core.naive.NaiveAvailableCopyProtocol` (Figure 6).

Traffic attribution: reads and writes are bracketed with
``meter.record("read"/"write")``; recovery traffic (including version
vector exchanges deferred until after a total failure resolves) is
attributed manually so that *total* recovery traffic divided by the
number of repair events reproduces the paper's per-recovery costs.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..device.site import Site
    from ..membership.view import View
    from .policy import QuorumPolicy
    from .version import VersionVector
from ..errors import (
    CorruptBlockError,
    MembershipError,
    QuorumNotReachedError,
    SiteDownError,
    StaleEpochError,
)
from ..net.message import VectorReply
from ..net.network import Network
from ..obs.trace import _NULL_SPAN, UNSET
from ..net.traffic import TrafficMeter
from ..sim.failures import FailureRepairProcess
from ..types import BlockIndex, SchemeName, SiteId, SiteState
from .round import QuorumRound

__all__ = ["ReplicationProtocol", "Update", "updates_of"]

#: One block of a write fan-out: ``(block, contents, version)``.
Update = Tuple[BlockIndex, bytes, int]

#: Attribute names of a ``protocol.<op>`` span, single-block and batched
#: (one tuple per shape, shared by every span: see ``Tracer.open_span``).
#: ``local`` is written only for a read served without a round.
_PROTOCOL_BLOCK_KEYS = ("scheme", "origin", "block", "local")
_PROTOCOL_BATCH_KEYS = ("scheme", "origin", "batch", "local")
#: Attribute names of a ``protocol.recovery`` event.
_RECOVERY_KEYS = ("scheme", "messages")


def updates_of(payload: Any) -> Sequence[Update]:
    """The updates a write fan-out message carries, in apply order.

    WRITE_UPDATE carries one ``(block, contents, version)`` tuple,
    BATCH_WRITE_UPDATE a ``{block: (contents, version)}`` map applied
    in ascending block order.  The two wire shapes are all that
    differs between a single-block and a batched fan-out, so every
    fan-out reads its message through this one function (once, for
    all recipients).
    """
    if type(payload) is dict:
        return [(b, *payload[b]) for b in sorted(payload)]
    return (payload,)


def _store_handler(node, payload):
    """BLOCK_TRANSFER / BATCH_BLOCK_TRANSFER: store the pushed copies."""
    for index, blob, version in updates_of(payload):
        node.write_block(index, blob, version)


def _batch_vote_handler(node, payload):
    """BATCH_VOTE_REQUEST: one reply mapping every block to a version."""
    vget = node.block_version
    return {b: vget(b) for b in payload}


class ReplicationProtocol(abc.ABC):
    """Base class for block-level consistency-control protocols."""

    #: Which of the paper's three schemes this class implements.
    scheme: SchemeName

    def __init__(self, sites: Sequence['Site'], network: Network) -> None:
        if not sites:
            raise ValueError("a replica group needs at least one site")
        ids = [site.site_id for site in sites]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate site ids in replica group: {ids}")
        self._sites: Dict[SiteId, 'Site'] = {s.site_id: s for s in sites}
        self._order: List[SiteId] = ids
        self._network = network
        for site in sites:
            network.attach(site)
        #: Freelist of :class:`~repro.core.round.QuorumRound` objects;
        #: the steady-state operation loop borrows one per round and
        #: returns it in a ``finally``, so the pool stays at its
        #: high-water mark (nesting depth, in practice 1) even across
        #: failing operations.
        self._round_pool: List[QuorumRound] = []
        #: Reusable traffic-attribution context managers, one per
        #: operation kind.  ``TrafficMeter.record`` returns a stateless
        #: handle (enter/exit mutate only the meter), so caching them
        #: elides a handle allocation per operation; the meter itself
        #: is fixed at network construction.
        meter = network.meter
        self._record_read = meter.record("read")
        self._record_write = meter.record("write")
        self._record_batch_read = meter.record("batch_read")
        self._record_batch_write = meter.record("batch_write")
        #: The scheme tag every protocol span carries (see
        #: :meth:`_span`); ``getattr`` tolerates test stubs whose
        #: ``scheme`` is a plain placeholder.
        self._scheme_value: str = getattr(self.scheme, "value", "")
        geometries = {(s.store.num_blocks, s.store.block_size) for s in sites}
        if len(geometries) != 1:
            raise ValueError(
                f"replica sites disagree on device geometry: {geometries}"
            )
        #: Optional fault-history recorder (see :mod:`repro.faults`); the
        #: protocols notify it of detections, heals and fencings.  None on
        #: the fault-free path.
        self.recorder = None
        #: Corrupt copies detected at read/repair/scrub time.
        self.corruptions_detected = 0
        #: Corrupt copies overwritten with fresh data from a peer.
        self.blocks_healed = 0
        #: Sites evicted from the group after failing to take a write
        #: fan-out (available-copy schemes enforcing fail-stop).
        self.sites_fenced = 0
        #: The committed membership view (None until a
        #: :class:`~repro.membership.manager.MembershipManager` installs
        #: one; the static-group paths never consult it).
        self._view: Optional['View'] = None
        #: The successor view while a view change is in flight.
        self._pending_view: Optional['View'] = None
        #: Sites adopted mid-view-change that are not yet caught up
        #: (available-copy schemes park them COMATOSE while the state
        #: transfer runs; invariants exempt them).
        self.joining: Set[SiteId] = set()
        #: Writes fenced at an epoch boundary (observability).
        self.epoch_fences = 0
        #: The (RF, R, W) quorum policy in force, or None for the
        #: paper's fixed quorum composition.  Set by subclasses that
        #: accept one (see :mod:`repro.core.policy`).
        self.policy: Optional['QuorumPolicy'] = None
        #: Hinted handoff: missed updates parked on fallback sites.
        self.hints_parked = 0
        #: Hinted handoff: parked updates replayed to repaired owners.
        self.hints_replayed = 0
        #: Read repair: newest-version pushes to stale read voters.
        self.read_repairs = 0

    # -- structure ----------------------------------------------------------

    @property
    def sites(self) -> List['Site']:
        """The group's sites, in declaration order."""
        return [self._sites[i] for i in self._order]

    @property
    def site_ids(self) -> List[SiteId]:
        return list(self._order)

    @property
    def num_sites(self) -> int:
        return len(self._order)

    @property
    def network(self) -> Network:
        return self._network

    @property
    def meter(self) -> TrafficMeter:
        return self._network.meter

    @property
    def tracer(self):
        """The span tracer (the network's; a no-op unless wired)."""
        return self._network.tracer

    def _span(
        self,
        op: str,
        origin: SiteId,
        block: Optional[BlockIndex] = None,
        batch: Optional[int] = None,
        local: bool = False,
    ):
        """Open a ``protocol.<op>`` span tagged with this scheme.

        The concrete protocols bracket each read/write/batch operation
        with it (``block`` for single-block operations, ``batch`` = the
        block count for batched ones, ``local`` for reads served
        without a round); outcomes (quorum misses, down origins,
        corruption) are stamped automatically from the raised
        exception.  Arguments are positional so that the untraced path
        -- one attribute test -- builds no kwargs dict per operation.
        The scheme tag is cached at construction: ``self.scheme.value``
        costs two Python-level descriptor calls per span otherwise.
        """
        tracer = self._network._tracer
        if not tracer.enabled:
            return _NULL_SPAN
        if batch is None:
            keys, value = _PROTOCOL_BLOCK_KEYS, block
        else:
            keys, value = _PROTOCOL_BATCH_KEYS, batch
        return tracer.open_span(
            f"protocol.{op}", "protocol", keys,
            self._scheme_value, origin, value, True if local else UNSET,
        )

    # -- pooled round state ---------------------------------------------------

    def _borrow_round(self) -> QuorumRound:
        """A reset round sized for the current group.

        Callers must return it via :meth:`_release_round` in a
        ``finally`` so that a raising operation does not leak it.
        """
        pool = self._round_pool
        rnd = pool.pop() if pool else QuorumRound()
        rnd.begin(len(self._order))
        return rnd

    def _release_round(self, rnd: QuorumRound) -> None:
        """Return a borrowed round to the freelist."""
        self._round_pool.append(rnd)

    def site(self, site_id: SiteId) -> "Site":
        """Look up a member site by id."""
        try:
            return self._sites[site_id]
        except KeyError:
            raise SiteDownError(site_id, "not a member of this group") from None

    @property
    def num_blocks(self) -> int:
        return self.sites[0].store.num_blocks

    @property
    def block_size(self) -> int:
        return self.sites[0].store.block_size

    # -- site-state helpers ---------------------------------------------------

    def available_sites(self) -> List['Site']:
        """Sites in the AVAILABLE state, in declaration order.

        Reads the ``Site.is_available`` mirror, which ``crash`` and
        ``set_state`` keep equal to ``state is SiteState.AVAILABLE``.
        """
        sites = self._sites
        return [s for i in self._order if (s := sites[i]).is_available]

    def comatose_sites(self) -> List['Site']:
        """Sites in the COMATOSE state, in declaration order."""
        return [s for s in self.sites if s.state is SiteState.COMATOSE]

    def operational_sites(self) -> List['Site']:
        """Sites whose process is running (not failed)."""
        return [s for s in self.sites if s.state is not SiteState.FAILED]

    def require_origin(self, origin: SiteId) -> "Site":
        """The site an operation is initiated at; must be operational."""
        site = self.site(origin)
        if site.state is SiteState.FAILED:
            raise SiteDownError(origin, "cannot initiate operations")
        return site

    # -- the protocol interface ------------------------------------------------

    @abc.abstractmethod
    def read(self, origin: SiteId, block: BlockIndex) -> bytes:
        """Read ``block`` on behalf of the file system at ``origin``.

        Raises :class:`~repro.errors.DeviceUnavailableError` when the
        consistency protocol cannot currently serve reads.
        """

    @abc.abstractmethod
    def write(self, origin: SiteId, block: BlockIndex, data: bytes) -> int:
        """Write ``block`` on behalf of the file system at ``origin``.

        Returns the version number assigned to the write (the fault
        checker correlates histories with it).  Raises
        :class:`~repro.errors.DeviceUnavailableError` when the
        consistency protocol cannot currently serve writes.
        """

    # -- batched operations (the vectorized I/O pipeline) ---------------------

    @abc.abstractmethod
    def read_batch(
        self, origin: SiteId, blocks: Sequence[BlockIndex]
    ) -> Dict[BlockIndex, bytes]:
        """Read a whole batch of blocks on behalf of ``origin``.

        Semantically equivalent to calling :meth:`read` once per
        distinct block, but implementations amortize the consistency
        machinery: the three concrete protocols collect versions for
        every block in ONE round and refresh stale copies with ONE
        scatter-gather transfer per source, so an n-block batch costs
        one quorum round instead of n.  Per-block guarantees (quorum
        intersection, read-latest-write) are unchanged; nothing is
        promised *across* blocks.
        """

    @abc.abstractmethod
    def write_batch(
        self, origin: SiteId, updates: Mapping[BlockIndex, bytes]
    ) -> Dict[BlockIndex, int]:
        """Write a whole batch of blocks on behalf of ``origin``.

        Returns ``block -> assigned version``.  Implementations fan the
        entire batch out in ONE transmission (plus one shared
        version-collection round for voting), preserving each scheme's
        per-block semantics: version assignment, quorum checks, fencing
        of silent members and torn-write reporting all behave exactly as
        if the blocks had been written one at a time.  A mid-fan-out
        origin crash tears every block of the batch the same way a
        single-block write is torn -- each block individually remains
        consistent; no cross-block atomicity is claimed.  Blocks are
        applied in ascending index order.
        """

    @abc.abstractmethod
    def is_available(self) -> bool:
        """Whether the replicated block device can currently serve access.

        This is the predicate whose steady-state probability Section 4
        derives: a quorum of up sites for voting, at least one available
        copy for the available-copy schemes.
        """

    @abc.abstractmethod
    def on_site_failed(self, site_id: SiteId) -> None:
        """A site just crashed (fail-stop)."""

    @abc.abstractmethod
    def on_site_repaired(self, site_id: SiteId) -> None:
        """A site's hardware just came back; run the recovery procedure."""

    # -- dynamic membership (epochs and view changes) --------------------------

    @property
    def view(self) -> Optional['View']:
        """The committed membership view (None for static groups)."""
        return self._view

    @property
    def pending_view(self) -> Optional['View']:
        """The successor view while a change is in flight, else None."""
        return self._pending_view

    @property
    def in_view_change(self) -> bool:
        return self._pending_view is not None

    def current_epoch(self) -> int:
        """The epoch new operations are tagged with.

        During a transition window this is already the *successor*
        epoch: every operational member adopted it when the window
        opened, so in-window writes pass the fence while writes that
        started before the window (older tag) are rejected.
        """
        if self._pending_view is not None:
            return self._pending_view.epoch
        return self._view.epoch if self._view is not None else 0

    def _configuration_changed(self) -> None:
        """Hook run after every change of membership or thresholds.

        Called by the five transitions below; a protocol whose state is
        compiled per configuration (voting's quorum decider) rebuilds
        it here, so no operation ever re-derives it.
        """

    def install_view(self, view: 'View') -> None:
        """Adopt ``view`` as the group's initial committed view.

        Called once by the membership manager; members must match the
        group exactly (installation never changes membership -- view
        *changes* do, via begin/commit).
        """
        if set(view.sites) != set(self._order):
            raise MembershipError(
                f"view members {sorted(view.sites)} do not match the "
                f"group {sorted(self._order)}"
            )
        self._view = view
        self._pending_view = None
        for site in self.operational_sites():
            site.set_epoch(view.epoch)
        self._configuration_changed()

    def begin_view_change(self, new_view: 'View') -> None:
        """Open the transition window toward ``new_view``.

        Bumps every operational member to the successor epoch (fencing
        in-flight writes tagged with the old one).  Subclasses extend
        this with scheme-specific window state -- voting arms the
        joint-quorum checks here.
        """
        if self._view is None:
            raise MembershipError(
                "no view installed; call install_view first"
            )
        if self._pending_view is not None:
            raise MembershipError(
                f"a view change toward epoch "
                f"{self._pending_view.epoch} is already in flight"
            )
        if new_view.epoch != self._view.epoch + 1:
            raise MembershipError(
                f"expected successor epoch {self._view.epoch + 1}, "
                f"got {new_view.epoch}"
            )
        self._pending_view = new_view
        for site in self.operational_sites():
            site.set_epoch(new_view.epoch)
        self._configuration_changed()

    def commit_view_change(self, view: 'View') -> None:
        """Make ``view`` the committed view and close the window.

        The manager has already expelled removed members; subclasses
        rebuild scheme state (vote reassignment, was-available sets)
        before delegating here.
        """
        if set(view.sites) != set(self._order):
            raise MembershipError(
                f"cannot commit view {sorted(view.sites)}: group "
                f"membership is {sorted(self._order)}"
            )
        self._view = view
        self._pending_view = None
        for site in self.operational_sites():
            site.set_epoch(view.epoch)
        self.joining.clear()
        self._configuration_changed()

    def adopt_site(self, site: 'Site') -> None:
        """Attach a joining site to the group and its network.

        The joiner participates in message fan-outs immediately; the
        membership manager is responsible for bringing its data current
        and (for available-copy schemes) keeping it COMATOSE until then.
        """
        if site.site_id in self._sites:
            raise MembershipError(
                f"site {site.site_id} is already a member"
            )
        geometry = (site.store.num_blocks, site.store.block_size)
        if geometry != (self.num_blocks, self.block_size):
            raise MembershipError(
                f"joining site {site.site_id} disagrees on device "
                f"geometry: {geometry} vs "
                f"{(self.num_blocks, self.block_size)}"
            )
        self._sites[site.site_id] = site
        self._order.append(site.site_id)
        self._network.attach(site)
        site.set_epoch(self.current_epoch())
        self._configuration_changed()

    def admit_joiner(self, site: 'Site', new_view: 'View') -> None:
        """Adopt ``site`` into the window toward ``new_view`` as a joiner.

        A voting joiner takes part in quorums at once: the membership
        manager's sweep decides when enough members are current.
        """
        self.adopt_site(site)
        self.joining.add(site.site_id)

    def expel_site(self, site_id: SiteId) -> None:
        """Remove a member from the group and detach it from the network."""
        if site_id not in self._sites:
            raise MembershipError(f"site {site_id} is not a member")
        if len(self._order) == 1:
            raise MembershipError("cannot expel the last member")
        del self._sites[site_id]
        self._order.remove(site_id)
        self._network.detach(site_id)
        self.joining.discard(site_id)
        self._configuration_changed()

    def _sync_epoch(self, site: 'Site') -> None:
        """Bring a repairing site's durable epoch current.

        A member that was down across one or more view changes must not
        keep fencing (or failing to fence) against its stale epoch;
        every repair path calls this before the site rejoins service.
        """
        if self._view is not None:
            site.set_epoch(self.current_epoch())

    def _settle_write(
        self,
        site: 'Site',
        updates: Sequence[Update],
        fenced: Sequence[SiteId],
        epoch_tag: int,
        short: Any,
    ) -> None:
        """Raise unless the fan-out of ``updates`` from ``site`` stands.

        Every write handler fences, view or no view: it refuses an
        update (and adds itself to ``fenced``) when the node has durably
        adopted a newer epoch than ``epoch_tag`` -- i.e. a view change
        opened between the operation's start and this delivery.  A
        static group lives in epoch 0 throughout, so nothing is fenced
        there.

        A write is *torn* -- some members applied it, the group as a
        whole did not -- when the origin crashed mid-fan-out (fault
        injection; its local copy never takes the update) or when what
        was applied falls ``short``: for voting that is the write
        quorum's ``(gathered, required)`` shortfall, for the
        write-to-all-available schemes any fenced member at all (they
        pass ``fenced`` itself).  Every block of the fan-out is
        reported torn individually; the higher versions left at
        whichever sites took them supersede stale copies through the
        ordinary repair paths.
        """
        if fenced:
            self.epoch_fences += len(fenced)
        crashed = site.state is SiteState.FAILED
        if not (crashed or short):
            return
        if self.recorder is not None:
            for block, blob, version in updates:
                self.recorder.torn_write(block, blob, version)
        if crashed:
            raise SiteDownError(
                site.site_id, "failed during the write fan-out"
            )
        if fenced:
            raise StaleEpochError(
                f"write of blocks {[u[0] for u in updates]} tagged "
                f"epoch {epoch_tag} was fenced by {sorted(set(fenced))}"
            )
        raise QuorumNotReachedError(*short)

    # -- simulator wiring -----------------------------------------------------

    def bind(self, process: FailureRepairProcess) -> None:
        """Subscribe this protocol to a failure/repair process."""
        process.on_failure(lambda site_id, _t: self.on_site_failed(site_id))
        process.on_repair(lambda site_id, _t: self.on_site_repaired(site_id))

    # -- fault observability -----------------------------------------------------

    def note_corruption(self, site_id: SiteId, block: BlockIndex) -> None:
        """A corrupt copy of ``block`` was detected at ``site_id``."""
        self.corruptions_detected += 1
        if self.recorder is not None:
            self.recorder.corruption_detected(site_id, block)

    def note_heal(self, site_id: SiteId, block: BlockIndex) -> None:
        """A corrupt copy of ``block`` at ``site_id`` was refreshed."""
        self.blocks_healed += 1
        if self.recorder is not None:
            self.recorder.block_healed(site_id, block)

    def fence(self, site_id: SiteId) -> None:
        """Evict a non-responding site, enforcing the fail-stop model.

        Available-copy correctness hinges on every available copy taking
        every write; a site whose delivery receipt / acknowledgement is
        missing can no longer be assumed current, so it is treated as
        failed and must run the ordinary repair procedure to rejoin.
        """
        self.sites_fenced += 1
        if self.recorder is not None:
            self.recorder.site_fenced(site_id)
        self.on_site_failed(site_id)

    # -- recovery traffic attribution -------------------------------------------

    def _record_recovery(self, start_total: int) -> None:
        """Attribute messages sent since ``start_total`` to recovery."""
        meter = self.meter
        spent = meter.total - start_total
        meter.messages_for("recovery").add(spent)
        emit = self._network._emit
        if emit is not None:
            emit("protocol.recovery", "protocol", _RECOVERY_KEYS,
                 self._scheme_value, spent)

    def _serve_vector(
        self, node: 'Site', vector: 'VersionVector',
        limit: Optional[int] = None,
    ):
        """Figure 5's repair source: answer a version-vector request.

        Replies with ``node``'s own vector plus a copy of every block
        ``vector`` is stale on -- only the first ``limit`` of them, in
        block order, for a joiner's bounded state-transfer chunk.  Stale
        blocks whose copy at ``node`` is corrupt are omitted (and
        quarantined there); the requester fetches those elsewhere.
        Quarantine keeps the version, so the one vector copy taken up
        front is the one replied with.
        """
        current = node.version_vector()
        blocks = {}
        for b in vector.stale_relative_to(current)[:limit]:
            try:
                blocks[b] = (node.read_block(b), node.block_version(b))
            except CorruptBlockError:
                self.note_corruption(node.site_id, b)
                node.store.quarantine(b)
        return VectorReply(current, blocks, ())

    # -- invariants (used by tests and debug assertions) --------------------------

    def consistency_report(self) -> Dict[BlockIndex, List[SiteId]]:
        """For each written block: available sites holding a stale copy.

        An empty report means every available site agrees with the
        highest version of every block -- the core invariant of the
        available-copy schemes (voting only guarantees it for quorums).
        """
        stale: Dict[BlockIndex, List[SiteId]] = {}
        available = self.available_sites()
        if not available:
            return stale
        for block in range(self.num_blocks):
            versions = [s.block_version(block) for s in available]
            top = max(versions)
            if top == 0:
                continue
            behind = [
                s.site_id
                for s, v in zip(available, versions)
                if v < top
            ]
            if behind:
                stale[block] = behind
        return stale
