"""The tracer is driven through its public interface only.

Every layer reaches the tracer through two primitives -- ``emit`` and
``open_span`` (or their keyword spellings ``event`` / ``span``) -- plus
``enabled`` and ``set_clock``.  Pinned here:

* what each hot emit site records -- the exact attrs of every device,
  protocol and net shape, written out by hand (a :class:`Tracer` and
  the double below share the emit-site code, so comparing the two
  cannot catch a site that records the wrong attribute);
* a recording double that implements *only* that interface (no record
  list, no id counter, no clock attribute) can stand in for a
  :class:`Tracer` anywhere and sees the same ``(name, layer, attrs)``
  sequence -- and the four recording methods take the same parameters
  on the double, on :class:`Tracer` and on :class:`NullTracer`;
* record ids are assigned where the record is appended, so a reply
  handler that itself emits in the middle of a fan-out stays correctly
  interleaved under every clock.
"""

import inspect

import pytest

from repro.core.policy import QuorumPolicy
from repro.core.round import QuorumRound
from repro.core.voting import VotingProtocol
from repro.device import ReliableDevice
from repro.device.site import Site
from repro.faults import ChaosConfig, run_chaos
from repro.net import MessageCategory, Network
from repro.obs import NullTracer, Tracer, traced_workload
from repro.obs.trace import UNSET
from repro.sim.engine import Simulator
from repro.types import SchemeName


class _Handle:
    """What instrumented code may do with an open span."""

    def __init__(self, attrs):
        self._attrs = attrs

    def set(self, **attrs):
        self._attrs.update(attrs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


class RecordingDouble:
    """A tracer with the public interface and nothing else."""

    enabled = True

    def __init__(self):
        self.seen = []

    def now(self):
        return 0.0

    def set_clock(self, clock):
        pass

    def emit(self, name, layer, keys, *values):
        self.open_span(name, layer, keys, *values)

    def open_span(self, name, layer, keys, *values):
        attrs = {
            key: value for key, value in zip(keys, values)
            if value is not UNSET
        }
        self.seen.append((name, layer, attrs))
        return _Handle(attrs)

    def event(self, name, layer, **attrs):
        self.emit(name, layer, tuple(attrs), *attrs.values())

    def span(self, name, layer, **attrs):
        return self.open_span(name, layer, tuple(attrs), *attrs.values())


def _sequence(tracer):
    return [(r.name, r.layer, r.attrs) for r in tracer.spans()]


def _parameters(cls, method):
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(getattr(cls, method)).parameters.values()
    ]


MCV = SchemeName.VOTING.value


def _attrs_of_four_ops(policy):
    """``(name, attrs)`` of a write, a read and a batch of each."""
    tracer = Tracer()
    protocol = VotingProtocol(
        [Site(i, 8, 16) for i in range(3)], Network(tracer=tracer),
        policy=policy,
    )
    device = ReliableDevice(protocol)
    data = bytes(16)
    device.write_block(2, data)
    device.read_block(2)
    device.write_blocks({1: data, 3: data})
    device.read_blocks([1, 3, 5])
    return [(r.name, r.attrs) for r in tracer.spans()]


def _request(category, size):
    return ("net.request", {
        "category": category, "src": 0, "destinations": 2,
        "transmissions": 1, "bytes_each": size,
    })


def _replies(category, size):
    return [
        ("net.reply", {
            "category": category, "src": src, "dst": 0, "bytes_each": size,
        })
        for src in (1, 2)
    ]


class TestHotSiteShapes:
    def test_default_group(self):
        assert _attrs_of_four_ops(None) == [
            ("device.write", {"origin": 0, "block": 2, "retries": 0}),
            ("protocol.write", {"scheme": MCV, "origin": 0, "block": 2}),
            _request("vote-request", 40),
            *_replies("vote-reply", 40),
            _request("write-update", 552),
            ("device.read", {"origin": 0, "block": 2, "retries": 0}),
            ("protocol.read", {"scheme": MCV, "origin": 0, "block": 2}),
            _request("vote-request", 40),
            *_replies("vote-reply", 40),
            ("device.write_batch", {"origin": 0, "batch": 2, "retries": 0}),
            ("protocol.write_batch",
             {"scheme": MCV, "origin": 0, "batch": 2}),
            _request("batch-vote-request", 48),
            *_replies("batch-vote-reply", 48),
            _request("batch-write-update", 1072),
            ("device.read_batch", {"origin": 0, "batch": 3, "retries": 0}),
            ("protocol.read_batch",
             {"scheme": MCV, "origin": 0, "batch": 3}),
            _request("batch-vote-request", 56),
            *_replies("batch-vote-reply", 56),
        ]

    def test_policy_device_and_local_reads(self):
        # R = 1: reads are served at the origin, without a round.
        tag = "3:1:3 (strict)"
        assert _attrs_of_four_ops(QuorumPolicy(3, 1, 3)) == [
            ("device.write",
             {"origin": 0, "block": 2, "policy": tag, "retries": 0}),
            ("protocol.write", {"scheme": MCV, "origin": 0, "block": 2}),
            _request("vote-request", 40),
            *_replies("vote-reply", 40),
            _request("write-update", 552),
            ("device.read",
             {"origin": 0, "block": 2, "policy": tag, "retries": 0}),
            ("protocol.read",
             {"scheme": MCV, "origin": 0, "block": 2, "local": True}),
            ("device.write_batch",
             {"origin": 0, "batch": 2, "policy": tag, "retries": 0}),
            ("protocol.write_batch",
             {"scheme": MCV, "origin": 0, "batch": 2}),
            _request("batch-vote-request", 48),
            *_replies("batch-vote-reply", 48),
            _request("batch-write-update", 1072),
            ("device.read_batch",
             {"origin": 0, "batch": 3, "policy": tag, "retries": 0}),
            ("protocol.read_batch",
             {"scheme": MCV, "origin": 0, "batch": 3, "local": True}),
        ]


class TestPublicInterfaceSuffices:
    @pytest.mark.parametrize(
        "method", ["emit", "open_span", "event", "span"]
    )
    def test_recording_methods_take_the_same_parameters(self, method):
        expected = _parameters(Tracer, method)
        assert [name for name, _, _ in expected][:3] == [
            "self", "name", "layer",
        ]
        assert _parameters(NullTracer, method) == expected
        assert _parameters(RecordingDouble, method) == expected

    def test_double_has_nothing_a_tracer_lacks(self):
        def public(cls):
            return {name for name in dir(cls) if not name.startswith("_")}

        assert public(RecordingDouble) <= public(Tracer)

    @pytest.mark.parametrize("scheme", list(SchemeName))
    def test_double_sees_what_a_tracer_records(self, scheme):
        def run(tracer):
            traced_workload(
                scheme=scheme, horizon=300.0, seed=9, tracer=tracer
            )
            return tracer

        real, double = run(Tracer()), run(RecordingDouble())
        assert double.seen == _sequence(real)
        assert {layer for _, layer, _ in double.seen} >= {
            "device", "protocol", "net", "scrub",
        }

    def test_double_through_a_reconfiguring_chaos_run(self):
        config = ChaosConfig(
            seed=4, operations=200, reconfigure_rate=0.05
        )
        real, double = Tracer(), RecordingDouble()
        assert run_chaos(config, tracer=real).ok
        assert run_chaos(config, tracer=double).ok
        assert double.seen == _sequence(real)
        assert {layer for _, layer, _ in double.seen} >= {
            "chaos", "membership",
        }


class _Node:
    is_reachable = True

    def __init__(self, site_id):
        self.site_id = site_id


def _sim_clock():
    sim = Simulator()
    sim.run(until=5.0)
    return sim.now_reader()


class TestReentrantEmit:
    @pytest.mark.parametrize(
        "make_clock", [lambda: None, _sim_clock], ids=["tick", "sim"]
    )
    @pytest.mark.parametrize("reply", [
        MessageCategory.VOTE_REPLY,  # fixed size: batched metering
        MessageCategory.BATCH_VOTE_REPLY,  # sized per payload
    ])
    def test_handler_emitting_mid_round_keeps_ids_in_call_order(
        self, make_clock, reply
    ):
        tracer = Tracer(clock=make_clock())
        net = Network(tracer=tracer)
        for i in range(4):
            net.attach(_Node(i))

        def handler(node, payload):
            tracer.event(
                "protocol.recovery", layer="protocol", site=node.site_id
            )
            return {0: node.site_id}

        out = QuorumRound()
        out.begin(4)
        net.broadcast_round(
            0, MessageCategory.BATCH_VOTE_REQUEST, reply, handler,
            [0], out,
        )
        records = tracer.spans()
        assert [r.span_id for r in records] == list(range(7))
        assert [r.name for r in records] == ["net.request"] + [
            "protocol.recovery", "net.reply",
        ] * 3
        assert [r.attrs.get("site", r.attrs.get("src")) for r in records] \
            == [0, 1, 1, 2, 2, 3, 3]
        starts = [r.start for r in records]
        assert starts == sorted(starts)
        assert out.ids[:out.count] == [1, 2, 3]
        assert net.meter.category_count(reply) == 3
