"""Message vocabulary for the replica network.

Section 5 of the paper analyses *high-level transmissions*: vote
requests, vote replies, block transfers, version-vector exchanges and so
on, arguing that low-level message counts are proportional to these.  The
simulator therefore counts messages by the same high-level categories.

Each category also declares its payload once, as named :class:`Field`
entries priced in three units, so what a message costs is a lookup in
that declaration (:class:`~repro.net.sizes.SizeModel`), not a guess
from the payload's type.  A payload is its one field, or a tuple of its
fields in declared order; only the fields priced per entry are ever
read, each by one ``len()``.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple

from ..types import SiteId

__all__ = ["MessageCategory", "Message", "BROADCAST", "Field", "VectorReply"]

#: Sentinel destination meaning "all other sites in the replica group".
BROADCAST: Optional[int] = None

_message_ids = itertools.count()

#: The units a payload field is priced in; every transmission carries
#: one header besides.  A vote is a version number plus a weight, a
#: version-vector entry a block index plus a version number, and a
#: versioned block one such entry plus the block's contents.
VOTE = "vote"
VV_ENTRY = "vv-entry"
VERSIONED_BLOCK = "versioned-block"


class Field(NamedTuple):
    """One declared payload field: ``unit`` once, or, when ``each``,
    once per entry of the field."""

    name: str
    unit: str
    each: bool = False


class MessageCategory(enum.Enum):
    """High-level transmission categories, following Section 5.

    A member's value is its wire name (the trace export records it);
    its ``shape`` is the tuple of :class:`Field` its payload declares.
    """

    #: Voting: request for votes (version number + weight) -- also carries
    #: the requester's local version number so a newer site can push the
    #: block (lazy per-block recovery, Section 3.1).
    VOTE_REQUEST = "vote-request", Field("vote", VOTE)
    #: Voting: a site's vote (its version number and weight).
    VOTE_REPLY = "vote-reply", Field("vote", VOTE)
    #: Transfer of a data block to refresh an out-of-date copy.
    BLOCK_TRANSFER = "block-transfer", Field("update", VERSIONED_BLOCK)
    #: The new block value pushed to the write quorum / available copies.
    WRITE_UPDATE = "write-update", Field("update", VERSIONED_BLOCK)
    #: Acknowledgement of a write update (available copy only).
    WRITE_ACK = "write-ack"
    #: A recovering site's broadcast asking which sites are operational.
    RECOVERY_PROBE = "recovery-probe"
    #: Response to a recovery probe: state tag, stored was-available set
    #: and scalar version total.
    RECOVERY_PROBE_REPLY = "recovery-probe-reply", Field("state", VV_ENTRY), \
        Field("was_available", VV_ENTRY, True), Field("version_total", VV_ENTRY)
    #: A recovering site sends its version vector to its repair source.
    VERSION_VECTOR_REQUEST = "version-vector-request", \
        Field("vector", VV_ENTRY, True)
    #: The repair source's reply, a :class:`VectorReply`: the correct
    #: version vector + the stale blocks (a scrub audit sends its
    #: corrupt copies' indexes instead of blocks).
    VERSION_VECTOR_REPLY = "version-vector-reply", \
        Field("vector", VV_ENTRY, True), Field("blocks", VERSIONED_BLOCK, True), \
        Field("corrupt", VV_ENTRY, True)
    #: A site that detected a corrupt local copy asks a peer for a fresh
    #: one (self-healing reads; answered with a BLOCK_TRANSFER).
    BLOCK_REPAIR_REQUEST = "block-repair-request", Field("wanted", VV_ENTRY)
    #: Scatter-gather vote collection: one request carrying a whole
    #: batch of block indexes (the batched I/O pipeline's single
    #: version-collection round).
    BATCH_VOTE_REQUEST = "batch-vote-request", Field("votes", VOTE, True)
    #: A site's votes for every block in a batch (block -> version).
    BATCH_VOTE_REPLY = "batch-vote-reply", Field("votes", VOTE, True)
    #: One fan-out carrying the new contents of a whole batch of blocks.
    BATCH_WRITE_UPDATE = "batch-write-update", \
        Field("updates", VERSIONED_BLOCK, True)
    #: Acknowledgement of a batched write update (available copy only).
    BATCH_WRITE_ACK = "batch-write-ack"
    #: Several data blocks pushed in one transmission to refresh
    #: out-of-date or corrupt copies (batched lazy repair / scrub).
    BATCH_BLOCK_TRANSFER = "batch-block-transfer", \
        Field("updates", VERSIONED_BLOCK, True)
    #: A joining (or catching-up) site asks a current member for a
    #: bounded chunk of the blocks it is missing: its version vector
    #: plus a chunk limit (membership state transfer).
    STATE_TRANSFER_REQUEST = "state-transfer-request", \
        Field("vector", VV_ENTRY, True), Field("limit", VOTE)
    #: The member's reply: its version vector plus up to the requested
    #: number of stale blocks (membership state transfer).
    STATE_TRANSFER_REPLY = "state-transfer-reply", \
        Field("vector", VV_ENTRY, True), Field("blocks", VERSIONED_BLOCK, True)
    #: A hinted-handoff record: a versioned block destined for a down
    #: replica, parked on a fallback site at write time and replayed to
    #: the owner when it repairs (sloppy quorum policies).  The owner is
    #: a vote-sized id; the update rides flattened behind it.
    HINT = "hint", Field("owner", VOTE), Field("update", VERSIONED_BLOCK)
    #: A read that observed divergent versions pushes the newest copy
    #: to a stale voter (read repair under quorum policies).
    READ_REPAIR = "read-repair", Field("update", VERSIONED_BLOCK)

    shape: Tuple[Field, ...]

    def __new__(cls, value: str, *shape: Field) -> "MessageCategory":
        member = object.__new__(cls)
        member._value_, member.shape = value, shape
        return member

    # Members are singletons compared by identity, so the identity hash
    # is consistent with equality -- and C-speed, where the enum default
    # (hash of the member name) is a Python-level call on every traffic
    # counter update.
    __hash__ = object.__hash__

    @property
    def is_reply(self) -> bool:
        """Whether this category is a response to another message."""
        return self in _REPLY_CATEGORIES

    @property
    def is_write_fanout(self) -> bool:
        """Whether this category applies new block contents at replicas.

        Fault injection keys on this: a mid-write crash tears whichever
        fan-out -- single-block or batched -- is in flight, and a failed
        origin sends no further updates of either kind.
        """
        return self in _WRITE_FANOUT_CATEGORIES


_REPLY_CATEGORIES = frozenset({
    MessageCategory.VOTE_REPLY,
    MessageCategory.WRITE_ACK,
    MessageCategory.RECOVERY_PROBE_REPLY,
    MessageCategory.VERSION_VECTOR_REPLY,
    MessageCategory.BATCH_VOTE_REPLY,
    MessageCategory.BATCH_WRITE_ACK,
    MessageCategory.STATE_TRANSFER_REPLY,
})

_WRITE_FANOUT_CATEGORIES = frozenset({
    MessageCategory.WRITE_UPDATE,
    MessageCategory.BATCH_WRITE_UPDATE,
})


class VectorReply(NamedTuple):
    """A VERSION_VECTOR_REPLY payload, fields as the category declares.

    ``vector`` is the replier's version vector, ``blocks`` the stale
    blocks it ships (``{block: (contents, version)}``) and ``corrupt``
    the indexes of its own corrupt copies (a scrub audit's finding).
    """

    vector: Any
    blocks: Dict[int, Tuple[bytes, int]]
    corrupt: Sequence[int]


class Message:
    """One high-level transmission.

    ``dst is None`` (:data:`BROADCAST`) denotes a multicast to the whole
    replica group; on a multicast network it costs one transmission, on a
    unique-addressing network one per addressed destination.

    The network builds one only when a delivery interceptor is installed
    (metering works from the category and payload alone); every
    destination of one fan-out is shown the same instance.
    """

    __slots__ = ("src", "dst", "category", "payload", "msg_id")

    def __init__(
        self,
        src: SiteId,
        dst: Optional[SiteId],
        category: MessageCategory,
        payload: Any = None,
        msg_id: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.category = category
        self.payload = payload
        self.msg_id = next(_message_ids) if msg_id is None else msg_id

    @property
    def is_broadcast(self) -> bool:
        return self.dst is None

    def describe(self) -> Tuple[str, SiteId, Optional[SiteId]]:
        """Compact (category, src, dst) triple for logs and tests."""
        return (self.category.value, self.src, self.dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, "
            f"category={self.category!r}, payload={self.payload!r}, "
            f"msg_id={self.msg_id!r})"
        )
