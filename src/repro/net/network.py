"""The replica-group network.

Models the communications substrate of Section 2: a *reliable*,
*partition-free* network connecting the fixed set of sites that hold
copies of the reliable device.  Because delivery is reliable and the
protocols are simple request/reply exchanges, delivery is synchronous --
what the network really does is (a) route requests to the server handler
of every reachable destination and (b) meter the number of high-level
transmissions under the chosen addressing mode:

* ``MULTICAST``  -- one transmission reaches every destination (Section 5.1);
* ``UNIQUE``     -- one transmission per addressed destination (Section 5.2).

Replies are always individually addressed.

Failed (fail-stop) sites are unreachable: a request addressed to them is
transmitted (and therefore counted, in unique addressing mode) but never
answered.

The network can additionally be **partitioned** into disjoint groups
(:meth:`Network.partition` / :meth:`Network.heal`).  The paper assumes a
partition-free network because the available-copy schemes "do not
operate correctly in the presence of partitions" (Sections 3.2 and 6);
the partition machinery exists to *demonstrate* that unsafety -- and
voting's immunity to it -- in the partition experiment.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol,
    Sequence, Tuple,
)

from ..errors import UnknownSiteError

if TYPE_CHECKING:  # imported lazily to avoid a net <-> core cycle
    from ..core.round import QuorumRound
from ..obs.trace import NULL_TRACER
from ..types import AddressingMode, SiteId
from .message import BROADCAST, Message, MessageCategory
from .sizes import SizeModel
from .traffic import TrafficMeter

__all__ = ["Network", "NetworkNode", "DeliveryInterceptor", "NO_REPLY"]

#: Sentinel a handler may return to indicate the site does not answer
#: (e.g. a comatose site ignoring a write update).  No reply transmission
#: is counted and the site is omitted from the reply map.
NO_REPLY = object()

#: Attribute names of the two trace records the network emits (one tuple
#: per shape, shared by every record: see :meth:`Tracer.emit`).
_REQUEST_KEYS = (
    "category", "src", "destinations", "transmissions", "bytes_each",
)
_REPLY_KEYS = ("category", "src", "dst", "bytes_each")


class NetworkNode(Protocol):
    """What the network needs to know about a site.

    Any object with a ``site_id`` and an ``is_reachable`` property can be
    attached; :class:`repro.device.site.Site` is the real implementation.
    """

    @property
    def site_id(self) -> SiteId: ...

    @property
    def is_reachable(self) -> bool: ...


Handler = Callable[[Any], Any]


class DeliveryInterceptor(Protocol):
    """Hook between transmission and delivery, for fault injection.

    The network consults :meth:`allow_delivery` for every message that
    *would* be delivered (reachable destination, same partition); a
    False return drops the message after it was metered -- the receiver
    simply never answers, exactly like a transient network fault.
    :meth:`after_delivery` runs after the destination's handler, which
    lets an injector crash a site *mid-broadcast* (after k of n
    destinations have applied a write -- a torn group write).
    """

    def allow_delivery(self, message: Message, dst: SiteId) -> bool: ...

    def after_delivery(self, message: Message, dst: SiteId) -> None: ...


class Network:
    """Synchronous request/reply network with transmission metering.

    Parameters
    ----------
    mode:
        Addressing capability (multicast or unique addressing).
    meter:
        Traffic meter; a fresh one is created when omitted.
    """

    def __init__(
        self,
        mode: AddressingMode = AddressingMode.MULTICAST,
        meter: Optional[TrafficMeter] = None,
        size_model: Optional[SizeModel] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self._mode = mode
        self._meter = meter if meter is not None else TrafficMeter()
        self._size_model = size_model if size_model is not None \
            else SizeModel()
        self._nodes: Dict[SiteId, NetworkNode] = {}
        #: Sorted node ids, maintained by attach/detach so the request
        #: fast path never re-sorts.
        self._sorted_ids: List[SiteId] = []
        #: src -> [(dst, node), ...] over all other attached sites in id
        #: order: the default destination list of every broadcast,
        #: cached so the fan-out loop skips both the per-call list
        #: comprehension and the per-destination node lookup.
        #: Invalidated wholesale by attach/detach.
        self._peer_pairs: Dict[
            SiteId, List[Tuple[SiteId, NetworkNode]]
        ] = {}
        #: site -> partition group id; empty when the network is whole.
        self._partition: Dict[SiteId, int] = {}
        #: Optional fault-injection hook; None on the fault-free path.
        self._interceptor: Optional[DeliveryInterceptor] = None
        #: Span tracer shared by the protocols and the scrub; the null
        #: tracer (a no-op) unless observability is wired in.
        self._tracer = NULL_TRACER
        #: ``tracer.emit`` when tracing is on, else None -- one cached
        #: bound method replaces two attribute lookups per metered
        #: message (``self._tracer.enabled`` + ``self._tracer.emit``).
        self._emit: Optional[Callable[..., None]] = None
        self.set_tracer(tracer)

    # -- observability ------------------------------------------------------

    @property
    def tracer(self) -> Any:
        """The tracer every layer above the network inherits."""
        return self._tracer

    def set_tracer(self, tracer: Optional[Any]) -> None:
        """Install (or with None, remove) the span tracer."""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._emit = self._tracer.emit if self._tracer.enabled else None

    # -- fault injection ----------------------------------------------------

    def set_interceptor(
        self, interceptor: Optional[DeliveryInterceptor]
    ) -> None:
        """Install (or with None, remove) the delivery interceptor."""
        self._interceptor = interceptor

    @property
    def interceptor(self) -> Optional[DeliveryInterceptor]:
        return self._interceptor

    # -- membership ---------------------------------------------------------

    def attach(self, node: NetworkNode) -> None:
        """Register a site with the network."""
        self._nodes[node.site_id] = node
        self._sorted_ids = sorted(self._nodes)
        self._peer_pairs.clear()

    def detach(self, site_id: SiteId) -> None:
        """Unregister a site (it was expelled from the replica group).

        A detached site receives no further traffic and no longer counts
        as a default broadcast destination.  Detaching an unknown site
        raises :class:`~repro.errors.UnknownSiteError`.
        """
        if site_id not in self._nodes:
            raise UnknownSiteError(site_id)
        del self._nodes[site_id]
        self._sorted_ids = sorted(self._nodes)
        self._peer_pairs.clear()
        self._partition.pop(site_id, None)

    def node(self, site_id: SiteId) -> NetworkNode:
        """Look up an attached site."""
        try:
            return self._nodes[site_id]
        except KeyError:
            raise UnknownSiteError(site_id) from None

    @property
    def site_ids(self) -> List[SiteId]:
        """All attached sites, in id order (a fresh list each call)."""
        return list(self._sorted_ids)

    @property
    def mode(self) -> AddressingMode:
        return self._mode

    @property
    def meter(self) -> TrafficMeter:
        return self._meter

    @property
    def size_model(self) -> SizeModel:
        return self._size_model

    # -- partitions (Section 6's caveat, made executable) -----------------

    def partition(self, *groups: Sequence[SiteId]) -> None:
        """Split the network into disjoint ``groups`` of site ids.

        Sites not listed in any group become isolated (their own
        singleton partitions).  Messages between different groups are
        transmitted -- and counted -- but never delivered.
        """
        assignment: Dict[SiteId, int] = {}
        for index, group in enumerate(groups):
            for site_id in group:
                if site_id in assignment:
                    raise ValueError(
                        f"site {site_id} appears in more than one group"
                    )
                if site_id not in self._nodes:
                    raise UnknownSiteError(site_id)
                assignment[site_id] = index
        next_group = len(groups)
        for site_id in self._nodes:
            if site_id not in assignment:
                assignment[site_id] = next_group
                next_group += 1
        self._partition = assignment

    def heal(self) -> None:
        """Remove all partitions; every site can reach every site."""
        self._partition = {}

    @property
    def is_partitioned(self) -> bool:
        return bool(self._partition) and len(
            set(self._partition.values())
        ) > 1

    def can_communicate(self, a: SiteId, b: SiteId) -> bool:
        """Whether sites ``a`` and ``b`` are in the same partition."""
        if not self._partition:
            return True
        return self._partition.get(a) == self._partition.get(b)

    def _delivers(self, src: SiteId, node: NetworkNode) -> bool:
        """Whether a message from ``src`` reaches ``node``."""
        return node.is_reachable and self.can_communicate(
            src, node.site_id
        )

    def reachable_sites(self, exclude: Optional[SiteId] = None) -> List[SiteId]:
        """Ids of reachable sites (optionally excluding one), in id order."""
        nodes = self._nodes
        return [
            s
            for s in self._sorted_ids
            if s != exclude and nodes[s].is_reachable
        ]

    # -- transmission cost accounting -----------------------------------------
    #
    # Metering works from (category, payload) directly: no Message object
    # exists on the fast path (one is built only when a delivery
    # interceptor needs it, and replies are never intercepted).

    def _count_request(
        self,
        category: MessageCategory,
        src: SiteId,
        payload: Any,
        destinations: Sequence[Any],
    ) -> None:
        """Meter an outgoing request under the current addressing mode.

        Only the *number* of destinations matters here, so callers may
        pass either a list of site ids or a list of ``(id, node)``
        pairs.  One destination costs one transmission in either mode.
        """
        if not destinations:
            return
        size = self._size_model.bytes_of(category, payload)
        if self._mode is AddressingMode.MULTICAST:
            transmissions = 1
        else:
            transmissions = len(destinations)
        self._meter.count_for(category, transmissions, transmissions * size)
        emit = self._emit
        if emit is not None:
            # ``._value_`` is the member's plain value slot; ``.value``
            # resolves through a Python-level DynamicClassAttribute
            # descriptor on every metered message.
            emit(
                "net.request", "net", _REQUEST_KEYS, category._value_,
                src, len(destinations), transmissions, size,
            )

    def _count_reply(
        self,
        category: MessageCategory,
        src: SiteId,
        dst: SiteId,
        payload: Any,
    ) -> None:
        """Meter a reply: replies are always individually addressed."""
        size = self._size_model.bytes_of(category, payload)
        self._meter.count_for(category, 1, size)
        emit = self._emit
        if emit is not None:
            emit(
                "net.reply", "net", _REPLY_KEYS, category._value_,
                src, dst, size,
            )

    # -- communication primitives ---------------------------------------------

    def _peers(self, src: SiteId) -> List[Tuple[SiteId, NetworkNode]]:
        """``(dst, node)`` for every other attached site, in id order."""
        pairs = self._peer_pairs.get(src)
        if pairs is None:
            nodes = self._nodes
            pairs = self._peer_pairs[src] = [
                (s, nodes[s]) for s in self._sorted_ids if s != src
            ]
        return pairs

    def broadcast_query(
        self,
        src: SiteId,
        request: MessageCategory,
        reply: MessageCategory,
        handler: Callable[[NetworkNode, Any], Any],
        payload: Any = None,
        destinations: Optional[List[SiteId]] = None,
    ) -> Dict[SiteId, Any]:
        """Send a request to many sites; return ``site_id -> reply``.

        :meth:`broadcast_round` into a fresh round, read back as a dict
        in arrival order.  The name stays because the whole-stack
        benchmark (``benchmarks/stack``) patches every network entry
        point by name.
        """
        from ..core.round import QuorumRound

        out = QuorumRound()
        out.begin(
            len(self._sorted_ids) if destinations is None
            else len(destinations)
        )
        self.broadcast_round(
            src, request, reply, handler, payload, out, destinations
        )
        return dict(zip(out.ids[:out.count], out.values[:out.count]))

    def broadcast_round(
        self,
        src: SiteId,
        request: MessageCategory,
        reply: MessageCategory,
        handler: Callable[[NetworkNode, Any], Any],
        payload: Any,
        out: "QuorumRound",
        destinations: Optional[List[SiteId]] = None,
    ) -> None:
        """Send a request to many sites and gather replies into ``out``.

        ``destinations`` defaults to every other attached site.  The
        request is metered per the addressing mode; each *reachable*
        destination executes ``handler(node, payload)`` and its reply is
        metered as one individually addressed transmission.  Unreachable
        destinations silently produce no reply (fail-stop).

        Replies are appended to ``out`` (a pooled
        :class:`~repro.core.round.QuorumRound`) in arrival order.  This
        is the network's one reply-gathering loop.  A reply's size is
        its category's fixed size or, for a payload-dependent category,
        :meth:`SizeModel.bytes_of` of the reply; the sizes are summed,
        and the round's replies are booked in one
        :meth:`TrafficMeter.count_for` call -- the meter is pure
        counter arithmetic, so they accumulate identically to one call
        per reply.  The flush sits in a ``finally`` so a handler that
        raises mid-loop still meters the replies already received.
        Each reply still emits its own ``net.reply`` event, with its
        own size, as it arrives.
        """
        if destinations is None:
            pairs = self._peers(src)
        else:
            nodes = self._nodes
            pairs = [(d, nodes.get(d)) for d in destinations]
        self._count_request(request, src, payload, pairs)
        hook = self._interceptor
        message = (
            Message(src, BROADCAST, request, payload)
            if hook is not None else None
        )
        partition = self._partition
        # ``QuorumRound.add`` unrolled into the reply loop below: the
        # slot lists are pre-sized by ``begin``, and the method frame
        # is one of the highest-count calls in the repository.
        out_ids = out.ids
        out_values = out.values
        fixed = self._size_model.fixed_bytes(reply)
        bytes_of = self._size_model.bytes_of
        emit = self._emit
        replies = total = 0
        try:
            for dst, node in pairs:
                if node is None:
                    raise UnknownSiteError(dst)
                if not node.is_reachable:
                    continue
                if partition and partition.get(src) != partition.get(dst):
                    continue
                if hook is not None:
                    if not hook.allow_delivery(message, dst):
                        continue
                    result = handler(node, payload)
                    hook.after_delivery(message, dst)
                else:
                    result = handler(node, payload)
                if result is NO_REPLY:
                    continue
                size = fixed if fixed is not None \
                    else bytes_of(reply, result)
                if emit is not None:
                    emit(
                        "net.reply", "net", _REPLY_KEYS,
                        reply._value_, dst, src, size,
                    )
                replies += 1
                total += size
                i = out.count
                out_ids[i] = dst
                out_values[i] = result
                out.count = i + 1
                if type(result) is int and result > out.top:
                    out.top = result
        finally:
            if replies:
                self._meter.count_for(reply, replies, total)

    def broadcast_oneway(
        self,
        src: SiteId,
        category: MessageCategory,
        handler: Callable[[NetworkNode, Any], Any],
        payload: Any = None,
        destinations: Optional[List[SiteId]] = None,
    ) -> List[SiteId]:
        """Send a request to many sites without expecting replies.

        Returns the ids of the reachable destinations that processed the
        message (used by the available-copy write to learn nothing -- the
        *naive* scheme's whole point -- but useful to tests).
        """
        if destinations is None:
            pairs = self._peers(src)
        else:
            nodes = self._nodes
            pairs = [(d, nodes.get(d)) for d in destinations]
        self._count_request(category, src, payload, pairs)
        hook = self._interceptor
        message = (
            Message(src, BROADCAST, category, payload)
            if hook is not None else None
        )
        partition = self._partition
        delivered: List[SiteId] = []
        for dst, node in pairs:
            if node is None:
                raise UnknownSiteError(dst)
            if not node.is_reachable:
                continue
            if partition and partition.get(src) != partition.get(dst):
                continue
            if hook is not None:
                if not hook.allow_delivery(message, dst):
                    continue
                handler(node, payload)
                hook.after_delivery(message, dst)
            else:
                handler(node, payload)
            delivered.append(dst)
        return delivered

    def unicast_query(
        self,
        src: SiteId,
        dst: SiteId,
        request: MessageCategory,
        reply: MessageCategory,
        handler: Callable[[NetworkNode, Any], Any],
        payload: Any = None,
    ) -> Tuple[bool, Any]:
        """Send one request to one site and wait for its reply.

        Returns ``(True, reply)`` if the destination was reachable, else
        ``(False, None)`` (the request is still metered -- it was sent).
        """
        self._count_request(request, src, payload, [dst])
        node = self.node(dst)
        if not self._delivers(src, node):
            return False, None
        hook = self._interceptor
        if hook is not None:
            message = Message(src, dst, request, payload)
            if not hook.allow_delivery(message, dst):
                return False, None
            result = handler(node, payload)
            hook.after_delivery(message, dst)
        else:
            result = handler(node, payload)
        if result is NO_REPLY:
            return False, None
        self._count_reply(reply, dst, src, result)
        return True, result

    def unicast_oneway(
        self,
        src: SiteId,
        dst: SiteId,
        category: MessageCategory,
        handler: Callable[[NetworkNode, Any], Any],
        payload: Any = None,
    ) -> bool:
        """Send one request to one site without expecting a reply."""
        self._count_request(category, src, payload, [dst])
        node = self.node(dst)
        if not self._delivers(src, node):
            return False
        hook = self._interceptor
        if hook is None:
            handler(node, payload)
            return True
        message = Message(src, dst, category, payload)
        if not hook.allow_delivery(message, dst):
            return False
        handler(node, payload)
        hook.after_delivery(message, dst)
        return True
