"""The tracer is driven through its public interface only.

Every layer reaches the tracer through two primitives -- ``emit`` and
``open_span`` (or their keyword spellings ``event`` / ``span``) -- plus
``enabled`` and ``set_clock``.  Two consequences are pinned here:

* a recording double that implements *only* that interface (no record
  list, no id counter, no clock attribute) can stand in for a
  :class:`Tracer` anywhere and sees the same ``(name, layer, attrs)``
  sequence;
* record ids are assigned where the record is appended, so a reply
  handler that itself emits in the middle of a fan-out stays correctly
  interleaved under every clock.
"""

import pytest

from repro.core.round import QuorumRound
from repro.faults import ChaosConfig, run_chaos
from repro.net import MessageCategory, Network
from repro.obs import Tracer, traced_workload
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

    def emit(self, name, layer, attrs):
        self.seen.append((name, layer, attrs))

    def open_span(self, name, layer, attrs):
        self.seen.append((name, layer, attrs))
        return _Handle(attrs)

    def event(self, name, layer, **attrs):
        self.emit(name, layer, attrs)

    def span(self, name, layer, **attrs):
        return self.open_span(name, layer, attrs)


def _sequence(tracer):
    return [(r.name, r.layer, r.attrs) for r in tracer.spans()]


class TestPublicInterfaceSuffices:
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
