"""Observability on the kernel fast path.

The kernel rewrite caches observability lookups on the hot paths: the
network resolves the tracer's ``emit`` method once per ``set_tracer``
call, and the workload runner caches the
registry's counter/histogram bound methods per ``(kind, outcome)``
(``WorkloadRunner._instruments``).  These tests pin the contract that
the caches are invisible:

* :class:`Tracer` and :class:`NullTracer` stay interchangeable -- a
  traced run and an untraced run of the same seeded cluster produce
  identical simulation results; recorded spans are the only difference;
* swapping tracers through :meth:`Network.set_tracer` re-resolves the
  cached hook (no events leak to a removed tracer);
* registry figures reached through the runner's cached bound methods are
  the same singletons a fresh registry probe returns, and
  snapshot/delta arithmetic over them stays exact.
"""

from repro.device import ClusterConfig, ReplicatedCluster
from repro.net import MessageCategory, Network
from repro.obs import MetricsRegistry, NullTracer, Tracer, observe_cluster
from repro.types import SchemeName
from repro.workload import OpKind, WorkloadRunner, WorkloadSpec

REQ = MessageCategory.VOTE_REQUEST
REP = MessageCategory.VOTE_REPLY


class _Node:
    def __init__(self, site_id):
        self.site_id = site_id
        self.is_reachable = True

    def handle(self, payload):
        return ("echo", payload)


def _small_net(n=3):
    net = Network()
    for i in range(n):
        net.attach(_Node(i))
    return net


def _run_cluster(tracer=None, registry=None, horizon=600.0):
    cluster = ReplicatedCluster(ClusterConfig(
        scheme=SchemeName.VOTING,
        num_sites=5,
        num_blocks=32,
        failure_rate=0.05,
        repair_rate=1.0,
        seed=11,
    ))
    if tracer is not None:
        cluster.network.set_tracer(tracer)
    runner = WorkloadRunner(
        cluster, WorkloadSpec(op_rate=1.5), metrics=registry
    )
    result = runner.run(horizon)
    return cluster, runner, result


def _result_fingerprint(cluster, result):
    """Everything a run produced except the observability artefacts."""
    return {
        "now": cluster.sim.now,
        "meter_total": cluster.meter.total,
        "meter_bytes": cluster.meter.total_bytes,
        "attempted": dict(result.attempted),
        "succeeded": dict(result.succeeded),
        "messages_ok": {
            k: (s.count, s.mean) for k, s in result.messages_ok.items()
        },
        "messages_failed": {
            k: (s.count, s.mean) for k, s in result.messages_failed.items()
        },
    }


# -- Tracer / NullTracer interchangeability ------------------------------------

class TestTracerInterchangeability:
    def test_traced_and_untraced_runs_agree(self):
        """Tracing must not perturb the simulation: identical results,
        spans are the only difference."""
        plain_cluster, _, plain_result = _run_cluster()
        tracer = Tracer()
        traced_cluster, _, traced_result = _run_cluster(tracer=tracer)

        assert _result_fingerprint(
            plain_cluster, plain_result
        ) == _result_fingerprint(traced_cluster, traced_result)
        assert tracer.spans()  # the traced run did record something
        assert plain_cluster.network.tracer.spans() == []

    def test_null_tracer_leaves_event_hook_unset(self):
        """Default, explicit null and removed tracers all meter without
        recording."""
        net = _small_net()

        def query():
            net.unicast_query(
                0, 1, REQ, REP, handler=lambda n, p: n.handle(p)
            )
            assert not net.tracer.enabled
            assert len(net.tracer) == 0

        query()  # default NullTracer
        net.set_tracer(NullTracer())
        query()
        net.set_tracer(None)  # "remove the tracer"
        query()
        assert net.meter.category_count(REQ) == 3

    def test_enabled_tracer_installs_bound_event_hook(self):
        """An installed tracer receives the very next transmission."""
        net = _small_net()
        tracer = Tracer()
        net.set_tracer(tracer)
        assert net.tracer is tracer
        net.unicast_query(0, 1, REQ, REP, handler=lambda n, p: n.handle(p))
        assert [r.name for r in tracer.spans()] == [
            "net.request", "net.reply",
        ]

    def test_swapping_tracers_rebinds_the_hook(self):
        """Events after a swap land in the new tracer only."""
        net = _small_net()
        first, second = Tracer(), Tracer()
        net.set_tracer(first)
        net.unicast_query(0, 1, REQ, REP, handler=lambda n, p: n.handle(p))
        first_count = len(first.spans())
        assert first_count > 0

        net.set_tracer(second)
        net.unicast_query(0, 2, REQ, REP, handler=lambda n, p: n.handle(p))
        assert len(first.spans()) == first_count  # nothing leaked
        assert len(second.spans()) > 0

        net.set_tracer(None)
        net.unicast_query(0, 1, REQ, REP, handler=lambda n, p: n.handle(p))
        assert len(first.spans()) == first_count
        assert len(second.spans()) > 0
        # metering is independent of tracing: all three queries counted
        assert net.meter.category_count(REQ) == 3

    def test_traced_events_match_meter_counts(self):
        """Every metered transmission shows up as exactly one net event."""
        net = _small_net()
        tracer = Tracer()
        net.set_tracer(tracer)
        net.broadcast_query(0, REQ, REP, handler=lambda n, p: n.handle(p))
        net.unicast_query(1, 2, REQ, REP, handler=lambda n, p: n.handle(p))
        sends = tracer.spans(name="net.request", layer="net")
        replies = tracer.spans(name="net.reply", layer="net")
        assert len(sends) == net.meter.category_count(REQ)
        assert len(replies) == net.meter.category_count(REP)


# -- MetricsRegistry under the runner's cached instruments ---------------------

class TestCachedInstruments:
    def test_cached_bound_methods_are_registry_singletons(self):
        """The cache must resolve to the very objects a fresh registry
        probe with the same name+labels returns."""
        registry = MetricsRegistry()
        _, runner, result = _run_cluster(registry=registry)
        assert runner._instruments  # the run populated the cache
        for (kind, ok), (inc, observe) in runner._instruments.items():
            labels = {
                "scheme": runner._scheme_label,
                "op": kind.value,
                "outcome": "ok" if ok else "failed",
            }
            assert inc == registry.counter("workload.ops", **labels).inc
            assert observe == registry.histogram(
                "workload.messages", **labels
            ).observe

    def test_registry_totals_match_workload_result(self):
        registry = MetricsRegistry()
        _, runner, result = _run_cluster(registry=registry)
        snap = registry.snapshot()
        scheme = runner._scheme_label
        for kind in OpKind:
            ok = snap.get(
                "workload.ops"
                f"{{op={kind.value},outcome=ok,scheme={scheme}}}"
            )
            failed = snap.get(
                "workload.ops"
                f"{{op={kind.value},outcome=failed,scheme={scheme}}}"
            )
            assert ok == result.succeeded[kind]
            assert ok + failed == result.attempted[kind]
            assert snap.get(
                "workload.messages"
                f"{{op={kind.value},outcome=ok,scheme={scheme}}}.count"
            ) == result.messages_ok[kind].count

    def test_snapshot_delta_isolates_midrun_increments(self):
        """A snapshot taken *mid-run* (from a scheduled event, on the
        live fast path) deltas cleanly against the final one."""
        registry = MetricsRegistry()
        cluster = ReplicatedCluster(ClusterConfig(
            scheme=SchemeName.VOTING,
            num_sites=5,
            num_blocks=32,
            failure_rate=0.05,
            repair_rate=1.0,
            seed=11,
        ))
        observe_cluster(cluster, registry=registry)
        runner = WorkloadRunner(
            cluster, WorkloadSpec(op_rate=1.5), metrics=registry
        )
        horizon = 600.0
        taken = []
        cluster.sim.schedule(horizon / 2, lambda: taken.append(
            registry.snapshot()
        ))
        result = runner.run(horizon)
        (middle,) = taken
        final = registry.snapshot()
        delta = final.delta(middle)

        total_ops = sum(result.attempted.values())
        first_half = sum(
            value for name, value in middle.values.items()
            if name.startswith("workload.ops{")
        )
        second_half = sum(
            value for name, value in delta.values.items()
            if name.startswith("workload.ops{")
        )
        assert 0 < first_half < total_ops
        assert first_half + second_half == total_ops
        # delta drops unchanged entries entirely
        assert all(value != 0 for value in delta.values.values())
