"""A replica site: one server process holding one copy of the device.

Per Section 2, the reliable device "is implemented as a set of server
processes on several sites".  A :class:`Site` bundles what one such
process owns, and declares every field once, in two groups:

* :attr:`Site.DURABLE` -- stable storage, which survives a fail-stop
  crash: the identity, the versioned
  :class:`~repro.device.block.BlockStore` (data, versions, stored
  checksums, quarantine), the voting weight (Section 3.1 assigns sites
  weights; ties for even replica groups are broken by giving one site a
  small extra weight), the witness flag, the adopted membership epoch,
  the available-copy was-available set and voting's hint stash.
  :mod:`repro.device.persistence` writes exactly these to a site image;
* :attr:`Site.VOLATILE` -- process state, lost at a crash: the
  :class:`~repro.types.SiteState` (failed / comatose / available) and
  its two plain-attribute mirrors, the failure count, and the store's
  bound accessors.

An attribute outside the two groups cannot be set (``__slots__``).

Sites are passive storage + state: the protocol objects in
:mod:`repro.core` implement all message handlers as functions over sites,
so each algorithm reads as a unit, like the paper's figures.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from ..types import BlockIndex, SiteId, SiteState, VersionNumber
from .block import DEFAULT_BLOCK_SIZE, BlockStore

__all__ = ["Site"]

#: A parked hinted-handoff update: ``(owner, block, data, version)``.
Hint = Tuple[SiteId, BlockIndex, bytes, VersionNumber]


class Site:
    """One replica server process and its stable storage."""

    #: Stable storage: the fields a site image carries.
    DURABLE = (
        "_site_id", "_store", "_weight", "_is_witness", "_epoch",
        "was_available", "hints",
    )
    #: Process state, and the store's bound accessors.
    VOLATILE = (
        "_state", "is_reachable", "is_available", "failures",
        "_num_blocks", "_vget", "read_block", "write_block", "apply",
        "block_version", "version_total", "version_vector",
    )
    __slots__ = DURABLE + VOLATILE

    def __init__(
        self,
        site_id: SiteId,
        num_blocks: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        weight: float = 1.0,
        is_witness: bool = False,
    ) -> None:
        if weight <= 0:
            raise ValueError(f"site weight must be positive, got {weight}")
        self._site_id = site_id
        self._store = BlockStore(num_blocks, block_size)
        self._weight = float(weight)
        self._is_witness = bool(is_witness)
        self._epoch = 0
        #: The was-available set W_s (available-copy schemes).
        self.was_available: FrozenSet[SiteId] = frozenset({site_id})
        #: Hinted-handoff updates parked here for down members (voting).
        self.hints: List[Hint] = []

        self._state = SiteState.AVAILABLE
        #: Plain-attribute mirrors of the state machine, updated on every
        #: transition: the network reads ``is_reachable`` per destination
        #: per fan-out, and a property descriptor there is measurable
        #: kernel overhead.
        self.is_reachable = True
        self.is_available = True
        #: Cumulative failure count (observability / tests).
        self.failures = 0
        #: The store's methods, bound once: one frame per block access
        #: instead of two.  ``_vget``/``_num_blocks`` let the vote
        #: handler answer after an inline bounds check.  Sound because
        #: ``_store`` is assigned exactly once and its version dict is
        #: mutated in place, never rebound.
        self._num_blocks = num_blocks
        self._vget = self._store._vget
        self.read_block = self._store.read
        self.write_block = self._store.write
        self.apply = self._store.apply
        self.block_version = self._store.version
        self.version_total = self._store.version_total
        self.version_vector = self._store.version_vector

    # -- identity -----------------------------------------------------------

    @property
    def site_id(self) -> SiteId:
        return self._site_id

    @property
    def weight(self) -> float:
        """This site's voting weight."""
        return self._weight

    def set_weight(self, weight: float) -> None:
        """Reassign this site's voting weight (view-change commit).

        Vote reassignment is how dynamic membership re-balances a
        majority group after a site joins or leaves; only
        :mod:`repro.membership` should call this, at epoch boundaries.
        """
        if weight <= 0:
            raise ValueError(f"site weight must be positive, got {weight}")
        self._weight = float(weight)

    @property
    def is_witness(self) -> bool:
        """Whether this site votes without storing data.

        Witnesses (Paris, "Voting with a Variable Number of Copies",
        FTCS 1986 -- the paper's reference [10]) hold version numbers on
        stable storage but no block contents, trading storage for
        quorum participation.
        """
        return self._is_witness

    @property
    def store(self) -> BlockStore:
        """The site's stable block storage."""
        return self._store

    # -- membership epoch ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """The membership epoch this site has adopted (0 = initial view)."""
        return self._epoch

    def set_epoch(self, epoch: int) -> None:
        """Durably adopt a membership epoch.

        Handlers compare a message's epoch tag against this to fence
        in-flight writes that straddle a view change.
        """
        self._epoch = int(epoch)

    # -- state machine --------------------------------------------------------

    @property
    def state(self) -> SiteState:
        return self._state

    # ``is_reachable`` (process answers requests: not FAILED -- failed
    # sites are silent, fail-stop) and ``is_available`` (in the
    # AVAILABLE protocol state) are plain attributes maintained by
    # :meth:`crash` and :meth:`set_state`; see ``__init__``.

    def crash(self) -> None:
        """Fail-stop: the process halts; stable storage is preserved."""
        self._state = SiteState.FAILED
        self.is_reachable = False
        self.is_available = False
        self.failures += 1

    def set_state(self, state: SiteState) -> None:
        """Protocol-driven state transition (repair/recovery)."""
        self._state = state
        self.is_reachable = state is not SiteState.FAILED
        self.is_available = state is SiteState.AVAILABLE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Site(id={self._site_id}, state={self._state.value}, "
            f"weight={self._weight:g})"
        )
