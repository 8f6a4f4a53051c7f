"""Unit tests for the metered request/reply network."""

import pytest

from repro.core.round import QuorumRound
from repro.errors import UnknownSiteError
from repro.net import NO_REPLY, MessageCategory, Network
from repro.obs import Tracer
from repro.types import AddressingMode


class FakeNode:
    """Minimal NetworkNode for testing."""

    def __init__(self, site_id, reachable=True):
        self.site_id = site_id
        self.is_reachable = reachable
        self.received = []

    def handle(self, payload):
        self.received.append(payload)
        return f"reply-from-{self.site_id}"


def make_network(mode, n=4, down=()):
    net = Network(mode=mode)
    nodes = {}
    for i in range(n):
        node = FakeNode(i, reachable=i not in down)
        net.attach(node)
        nodes[i] = node
    return net, nodes


REQ = MessageCategory.VOTE_REQUEST
REP = MessageCategory.VOTE_REPLY


class TestBroadcastQuery:
    def test_multicast_costs_one_plus_replies(self):
        net, _nodes = make_network(AddressingMode.MULTICAST)
        replies = net.broadcast_query(
            0, REQ, REP, handler=lambda node, p: node.handle(p)
        )
        assert set(replies) == {1, 2, 3}
        # 1 broadcast + 3 replies
        assert net.meter.total == 4
        assert net.meter.category_count(REQ) == 1
        assert net.meter.category_count(REP) == 3

    def test_unique_costs_one_per_destination(self):
        net, _nodes = make_network(AddressingMode.UNIQUE)
        net.broadcast_query(0, REQ, REP, handler=lambda n, p: n.handle(p))
        # 3 requests + 3 replies
        assert net.meter.category_count(REQ) == 3
        assert net.meter.category_count(REP) == 3

    def test_down_sites_get_no_reply_but_unique_still_pays_send(self):
        net, _nodes = make_network(AddressingMode.UNIQUE, down={2})
        replies = net.broadcast_query(
            0, REQ, REP, handler=lambda n, p: n.handle(p)
        )
        assert set(replies) == {1, 3}
        assert net.meter.category_count(REQ) == 3  # sent to 2 anyway
        assert net.meter.category_count(REP) == 2

    def test_multicast_to_down_sites_costs_one(self):
        net, _nodes = make_network(AddressingMode.MULTICAST, down={1, 2, 3})
        replies = net.broadcast_query(
            0, REQ, REP, handler=lambda n, p: n.handle(p)
        )
        assert replies == {}
        assert net.meter.total == 1

    def test_explicit_destinations(self):
        net, nodes = make_network(AddressingMode.MULTICAST)
        replies = net.broadcast_query(
            0, REQ, REP,
            handler=lambda n, p: n.handle(p),
            destinations=[2],
        )
        assert set(replies) == {2}
        assert nodes[1].received == []
        assert net.meter.total == 2

    def test_empty_destinations_cost_nothing(self):
        net, _nodes = make_network(AddressingMode.MULTICAST)
        replies = net.broadcast_query(
            0, REQ, REP, handler=lambda n, p: n.handle(p), destinations=[]
        )
        assert replies == {}
        assert net.meter.total == 0

    def test_no_reply_sentinel_suppresses_reply(self):
        net, _nodes = make_network(AddressingMode.MULTICAST)

        def picky(node, _payload):
            return NO_REPLY if node.site_id == 2 else "ok"

        replies = net.broadcast_query(0, REQ, REP, handler=picky)
        assert set(replies) == {1, 3}
        assert net.meter.category_count(REP) == 2

    def test_payload_delivered(self):
        net, nodes = make_network(AddressingMode.MULTICAST)
        net.broadcast_query(
            0, REQ, REP, handler=lambda n, p: n.handle(p), payload="hello"
        )
        assert nodes[1].received == ["hello"]


class TestBroadcastOneway:
    def test_no_reply_traffic(self):
        net, nodes = make_network(AddressingMode.MULTICAST)
        delivered = net.broadcast_oneway(
            0, MessageCategory.WRITE_UPDATE,
            handler=lambda n, p: n.handle(p),
        )
        assert delivered == [1, 2, 3]
        assert net.meter.total == 1

    def test_unique_oneway_counts_destinations(self):
        net, _nodes = make_network(AddressingMode.UNIQUE, down={3})
        delivered = net.broadcast_oneway(
            0, MessageCategory.WRITE_UPDATE,
            handler=lambda n, p: n.handle(p),
        )
        assert delivered == [1, 2]
        assert net.meter.total == 3


class TestUnicast:
    def test_query_round_trip(self):
        net, _nodes = make_network(AddressingMode.MULTICAST)
        ok, reply = net.unicast_query(
            0, 2, REQ, REP, handler=lambda n, p: n.handle(p)
        )
        assert ok and reply == "reply-from-2"
        assert net.meter.total == 2

    def test_query_to_down_site(self):
        net, _nodes = make_network(AddressingMode.MULTICAST, down={2})
        ok, reply = net.unicast_query(
            0, 2, REQ, REP, handler=lambda n, p: n.handle(p)
        )
        assert not ok and reply is None
        assert net.meter.total == 1  # the request was transmitted

    def test_oneway(self):
        net, nodes = make_network(AddressingMode.UNIQUE)
        assert net.unicast_oneway(
            0, 1, MessageCategory.BLOCK_TRANSFER,
            handler=lambda n, p: n.handle(p), payload=b"x",
        )
        assert nodes[1].received == [b"x"]
        assert net.meter.total == 1


class TestMembership:
    def test_unknown_site_raises(self):
        net, _nodes = make_network(AddressingMode.MULTICAST)
        with pytest.raises(UnknownSiteError):
            net.node(99)

    def test_reachable_sites(self):
        net, _nodes = make_network(AddressingMode.MULTICAST, down={1})
        assert net.reachable_sites() == [0, 2, 3]
        assert net.reachable_sites(exclude=0) == [2, 3]

    def test_site_ids_sorted(self):
        net = Network()
        net.attach(FakeNode(5))
        net.attach(FakeNode(1))
        assert net.site_ids == [1, 5]


class _FaultyDelivery:
    """Interceptor dropping the delivery to ``drop`` and crashing
    ``victim`` right after ``trigger`` handled the message."""

    def __init__(self, nodes, drop, trigger, victim):
        self._nodes = nodes
        self._drop = drop
        self._trigger = trigger
        self._victim = victim

    def allow_delivery(self, message, dst):
        return dst != self._drop

    def after_delivery(self, message, dst):
        if dst == self._trigger:
            self._nodes[self._victim].is_reachable = False


def _faulty_network(mode):
    """Eight sites: 2 loses its delivery, handling at 3 crashes 6, 4
    answers NO_REPLY and 7 sits in another partition."""
    net, nodes = make_network(mode, n=8)
    net.partition([0, 1, 2, 3, 4, 5, 6], [7])
    net.set_interceptor(_FaultyDelivery(nodes, drop=2, trigger=3, victim=6))
    tracer = Tracer()
    net.set_tracer(tracer)
    return net, tracer


def _quiet_at_4(answer):
    def handler(node, payload):
        node.received.append(payload)
        return NO_REPLY if node.site_id == 4 else answer(node, payload)
    return handler


_PARITY_WIRES = [
    # A fixed-size reply and one priced per entry of its payload.
    (REQ, REP, 7, lambda node, block: node.site_id + block),
    (
        MessageCategory.BATCH_VOTE_REQUEST,
        MessageCategory.BATCH_VOTE_REPLY,
        (1, 2, 3),
        lambda node, blocks: {b: node.site_id * b for b in blocks},
    ),
]


@pytest.mark.parametrize("mode", list(AddressingMode))
@pytest.mark.parametrize("request_cat, reply_cat, payload, answer",
                         _PARITY_WIRES)
def test_broadcast_query_and_round_deliver_alike(
    mode, request_cat, reply_cat, payload, answer
):
    """The dict gatherer and the pooled round see one delivery loop:
    same replies in the same order, same meter by category in
    transmissions and bytes, same ``net.*`` trace records."""
    query_net, query_trace = _faulty_network(mode)
    replies = query_net.broadcast_query(
        0, request_cat, reply_cat, _quiet_at_4(answer), payload
    )
    round_net, round_trace = _faulty_network(mode)
    rnd = QuorumRound()
    rnd.begin(8)
    round_net.broadcast_round(
        0, request_cat, reply_cat, _quiet_at_4(answer), payload, rnd
    )
    assert list(replies) == [1, 3, 5]
    assert list(replies.items()) == list(
        zip(rnd.ids[:rnd.count], rnd.values[:rnd.count])
    )
    for category in MessageCategory:
        assert query_net.meter.category_count(category) == \
            round_net.meter.category_count(category)
        assert query_net.meter.category_bytes(category) == \
            round_net.meter.category_bytes(category)
    assert query_net.meter.total_bytes == round_net.meter.total_bytes
    query_records = [r.to_dict() for r in query_trace.spans(layer="net")]
    round_records = [r.to_dict() for r in round_trace.spans(layer="net")]
    assert [r["name"] for r in query_records] == ["net.request"] + [
        "net.reply"
    ] * 3
    assert query_records == round_records
