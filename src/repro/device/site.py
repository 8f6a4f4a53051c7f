"""A replica site: one server process holding one copy of the device.

Per Section 2, the reliable device "is implemented as a set of server
processes on several sites".  A :class:`Site` bundles what one such
process owns:

* stable storage -- a versioned :class:`~repro.device.block.BlockStore`
  plus a small durable metadata dictionary (the available-copy scheme
  keeps its was-available set there), both of which survive failures;
* volatile state -- the :class:`~repro.types.SiteState`
  (failed / comatose / available) driving the consistency protocols;
* a voting weight (Section 3.1 assigns sites weights; ties for even
  replica groups are broken by giving one site a small extra weight).

Sites are passive storage + state: the protocol objects in
:mod:`repro.core` implement all message handlers as functions over sites,
so each algorithm reads as a unit, like the paper's figures.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from ..core.version import VersionVector
from ..types import BlockIndex, SiteId, SiteState, VersionNumber
from .block import DEFAULT_BLOCK_SIZE, BlockStore

__all__ = ["Site"]


class Site:
    """One replica server process and its stable storage."""

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
        #: Bound fast-path version probe (``version_of(index) ->
        #: version``): the vote handlers call this once per site per
        #: operation, so the ``Site`` -> ``BlockStore`` hop is
        #: pre-bound instead of re-resolved per vote.
        self.version_of = self._store.version
        #: Store internals mirrored flat onto the site: the vote
        #: handlers answer ``_vget(block, 0)`` after an inline bounds
        #: check, skipping the ``BlockStore.version`` frame per vote.
        #: Sound because ``_store`` is assigned exactly once and the
        #: version dict is mutated in place, never rebound.
        self._vget = self._store._vget
        self._num_blocks = num_blocks
        #: The pure-delegation accessors below are shadowed with the
        #: store's bound methods: one frame per block access instead of
        #: two, with identical signatures and exceptions.
        self.read_block = self._store.read
        self.write_block = self._store.write
        self.block_version = self._store.version
        self.version_total = self._store.version_total
        self._weight = float(weight)
        self._is_witness = bool(is_witness)
        self._state = SiteState.AVAILABLE
        #: Plain-attribute mirrors of the state machine, updated on every
        #: transition: the network reads ``is_reachable`` per destination
        #: per fan-out, and a property descriptor there is measurable
        #: kernel overhead.
        self.is_reachable = True
        self.is_available = True
        #: Durable protocol metadata (e.g. the was-available set), kept on
        #: stable storage: it survives failures, like the block data.
        self.meta: Dict[str, Any] = {}
        #: Cumulative failure count (observability / tests).
        self.failures = 0

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

    # -- stable storage helpers ------------------------------------------------

    def read_block(self, index: BlockIndex) -> bytes:
        return self._store.read(index)

    def write_block(
        self, index: BlockIndex, data: bytes, version: VersionNumber
    ) -> None:
        self._store.write(index, data, version)

    def block_version(self, index: BlockIndex) -> VersionNumber:
        return self._store.version(index)

    def version_total(self) -> int:
        """Scalar recency proxy used to pick the most current copy."""
        return self._store.version_total()

    # read_block / write_block / block_version / version_total are
    # shadowed by bound store methods in __init__ (see there); the defs
    # above remain the API of record and the fallback for
    # subclass-style introspection.

    def version_vector(self) -> VersionVector:
        return self._store.version_vector()

    # -- membership epoch (durable, like the was-available set) ------------------

    def get_epoch(self) -> int:
        """The membership epoch this site has adopted (0 = initial view)."""
        return int(self.meta.get("epoch", 0))

    def set_epoch(self, epoch: int) -> None:
        """Durably adopt a membership epoch.

        Handlers compare a message's epoch tag against this to fence
        in-flight writes that straddle a view change.
        """
        self.meta["epoch"] = int(epoch)

    # -- was-available metadata (available-copy schemes) -------------------------

    def get_was_available(self) -> Set[SiteId]:
        """The durable was-available set W_s (defaults to {self})."""
        stored = self.meta.get("was_available")
        return {self._site_id} if stored is None else set(stored)

    def set_was_available(self, sites: Set[SiteId]) -> None:
        """Durably record W_s."""
        self.meta["was_available"] = set(sites)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Site(id={self._site_id}, state={self._state.value}, "
            f"weight={self._weight:g})"
        )
