"""Unit tests for the span tracer and the trace schema."""

import io
import json

import pytest

from repro.core import QuorumSpec, VotingProtocol
from repro.device import Site
from repro.errors import QuorumNotReachedError
from repro.net import Network
from repro.obs import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
    load_trace,
    traced_workload,
    validate_trace_record,
)
from repro.obs.trace import UNSET
from repro.types import SiteState


class TestSpans:
    def test_span_records_times_and_ok_outcome(self):
        clock = iter([10.0, 12.5])
        tracer = Tracer(clock=lambda: next(clock))
        with tracer.span("protocol.read", layer="protocol", block=3):
            pass
        (record,) = tracer.spans()
        assert record.start == 10.0
        assert record.end == 12.5
        assert record.duration == pytest.approx(2.5)
        assert record.ok
        assert record.attrs == {"block": 3}

    def test_span_stamps_error_outcome_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("protocol.write", layer="protocol"):
                raise ValueError("no quorum")
        (record,) = tracer.spans()
        assert record.outcome == "error:ValueError"
        assert not record.ok

    def test_set_attaches_attributes_mid_span(self):
        tracer = Tracer()
        with tracer.span("device.read", layer="device") as span:
            span.set(retries=2)
        assert tracer.spans()[0].attrs["retries"] == 2

    def test_event_is_instantaneous_and_ok(self):
        tracer = Tracer(clock=lambda: 7.0)
        tracer.event("chaos.fault", layer="chaos", kind="crash")
        (record,) = tracer.spans()
        assert record.start == record.end == 7.0
        assert record.ok

    def test_failing_traced_ops_still_record_an_outcome(self):
        """Every span of an operation that raises is closed as an error."""
        spec = QuorumSpec.majority(5)
        network = Network(tracer=Tracer(clock=lambda: 0.0))
        protocol = VotingProtocol(
            [Site(i, 8, 16, weight=spec.weight_of(i)) for i in range(5)],
            network, spec=spec,
        )
        protocol.write(0, 1, b"\x01" * 16)
        for down in (2, 3, 4):
            protocol.site(down).set_state(SiteState.FAILED)
        for _ in range(100):
            with pytest.raises(QuorumNotReachedError):
                protocol.read(0, 1)
            with pytest.raises(QuorumNotReachedError):
                protocol.write(0, 1, b"\x02" * 16)
        spans = network.tracer.spans(layer="protocol")
        assert [s.outcome for s in spans] == (
            ["ok"] + ["error:QuorumNotReachedError"] * 200
        )
        assert all(s.end is not None for s in spans)

    def test_unknown_layer_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.span("x", layer="nonsense")
        with pytest.raises(ValueError):
            tracer.event("x", layer="nonsense")
        with pytest.raises(ValueError):
            tracer.open_span("x", "nonsense", ())
        with pytest.raises(ValueError):
            tracer.emit("x", "nonsense", ())
        assert len(tracer) == 0

    def test_values_must_match_the_declared_keys(self):
        """A short or long record would shift every later one."""
        tracer = Tracer()
        with pytest.raises(ValueError, match="1 attribute values"):
            tracer.emit("x", "net", ("a", "b"), 1)
        with pytest.raises(ValueError, match="3 attribute values"):
            tracer.open_span("x", "net", ("a", "b"), 1, 2, 3)
        assert len(tracer) == 0
        tracer.emit("x", "net", ("a", "b"), 1, 2)
        assert tracer.spans()[0].attrs == {"a": 1, "b": 2}

    def test_logical_clock_orders_records_without_a_clock(self):
        tracer = Tracer()
        tracer.event("a", layer="net")
        tracer.event("b", layer="net")
        first, second = tracer.spans()
        assert second.start > first.start


class TestQueries:
    def make(self):
        tracer = Tracer()
        with tracer.span("protocol.read", layer="protocol"):
            pass
        with pytest.raises(RuntimeError):
            with tracer.span("protocol.write", layer="protocol"):
                raise RuntimeError("boom")
        tracer.event("net.request", layer="net")
        return tracer

    def test_filter_by_layer(self):
        tracer = self.make()
        assert len(tracer.spans(layer="protocol")) == 2
        assert len(tracer.spans(layer="net")) == 1

    def test_filter_by_name_prefix(self):
        tracer = self.make()
        assert len(tracer.spans(name="protocol.")) == 2
        assert len(tracer.spans(name="protocol.read")) == 1

    def test_filter_by_outcome(self):
        tracer = self.make()
        assert len(tracer.spans(outcome="ok")) == 2
        assert len(tracer.spans(outcome="error")) == 1

    def test_layers_counts(self):
        tracer = self.make()
        assert tracer.layers() == {"protocol": 2, "net": 1}

    def test_len_and_clear(self):
        tracer = self.make()
        assert len(tracer) == 3
        tracer.clear()
        assert len(tracer) == 0

    def test_ids_keep_increasing_across_clear(self):
        tracer = self.make()
        tracer.clear()
        tracer.event("net.reply", layer="net")
        tracer.clear()
        tracer.event("net.reply", layer="net")
        tracer.event("net.reply", layer="net")
        assert [r.span_id for r in tracer.spans()] == [4, 5]
        buf = io.StringIO()
        tracer.export(buf)
        assert [r["span"] for r in load_trace(buf.getvalue().splitlines())] \
            == [4, 5]

    def test_filters_apply_before_attrs_are_built(self):
        class CountingKeys(tuple):
            """A keys tuple that counts how often it is walked."""

            walks = 0

            def __iter__(self):
                CountingKeys.walks += 1
                return super().__iter__()

        keys = CountingKeys(("src", "dst"))
        tracer = Tracer()
        for i in range(5):
            tracer.emit("net.reply", "net", keys, i, 0)
        with pytest.raises(RuntimeError):
            with tracer.open_span("device.read", "device", keys, 9, 9):
                raise RuntimeError("boom")
        CountingKeys.walks = 0
        assert tracer.spans(layer="protocol") == []
        assert tracer.spans(name="net.request") == []
        assert tracer.spans(name="protocol.") == []
        assert tracer.layers() == {"net": 5, "device": 1}
        assert len(tracer) == 6
        assert CountingKeys.walks == 0
        assert len(tracer.spans(outcome="error")) == 1
        assert CountingKeys.walks == 1
        assert len(tracer.spans()) == 6
        assert CountingKeys.walks == 7


class TestExport:
    def test_export_roundtrips_through_validation(self):
        tracer = Tracer(clock=lambda: 1.0)
        with tracer.span("device.write", layer="device", block=0):
            pass
        tracer.event("net.request", layer="net", bytes_each=64)
        buf = io.StringIO()
        assert tracer.export(buf) == 2
        records = load_trace(buf.getvalue().splitlines())
        assert [r["name"] for r in records] == [
            "device.write", "net.request",
        ]
        assert all(r["v"] == TRACE_SCHEMA_VERSION for r in records)

    def test_dump_writes_json_lines(self, tmp_path):
        tracer = Tracer()
        tracer.event("scrub.audit", layer="scrub")
        path = tmp_path / "trace.jsonl"
        assert tracer.dump(str(path)) == 1
        with open(path, "r", encoding="utf-8") as handle:
            (line,) = handle.read().splitlines()
        assert json.loads(line)["layer"] == "scrub"

    def test_export_matches_json_dump_reference(self):
        """``export`` is byte-for-byte the per-record ``json.dump``."""
        tracer = traced_workload(horizon=300.0, seed=5).obs.tracer
        reference = io.StringIO()
        for record in tracer.spans():
            json.dump(record.to_dict(), reference, sort_keys=True)
            reference.write("\n")
        buf = io.StringIO()
        assert tracer.export(buf) == len(tracer) > 0
        assert buf.getvalue() == reference.getvalue()

    @pytest.mark.parametrize("mutation, problem", [
        ({"v": 99}, "version"),
        ({"layer": "bogus"}, "layer"),
        ({"end": -1.0}, "precedes"),
        ({"outcome": "weird"}, "outcome"),
    ])
    def test_validator_flags_bad_records(self, mutation, problem):
        good = {
            "v": TRACE_SCHEMA_VERSION, "span": 0, "name": "x",
            "layer": "net", "start": 0.0, "end": 1.0,
            "outcome": "ok", "attrs": {},
        }
        assert validate_trace_record(good) == []
        bad = {**good, **mutation}
        assert any(problem in p for p in validate_trace_record(bad))

    def test_load_trace_raises_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_trace([
                json.dumps({
                    "v": TRACE_SCHEMA_VERSION, "span": 0, "name": "x",
                    "layer": "net", "start": 0.0, "end": 1.0,
                    "outcome": "ok", "attrs": {},
                }),
                "not json",
            ])


class TestNullTracer:
    def test_is_disabled_and_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", layer="whatever") as span:
            span.set(x=1)
        NULL_TRACER.event("anything", layer="whatever")
        assert NULL_TRACER.spans() == []
        buf = io.StringIO()
        assert NULL_TRACER.export(buf) == 0
        assert buf.getvalue() == ""

    def test_shared_span_singleton(self):
        a = NULL_TRACER.span("a", layer="x")
        b = NULL_TRACER.span("b", layer="y")
        assert a is b
        assert NULL_TRACER.open_span("c", "z", ("k",), 1) is a

    def test_public_interface_equals_the_real_tracer(self):
        """Instrumented code may call anything public on either."""
        def public(cls):
            return {name for name in dir(cls) if not name.startswith("_")}

        assert public(NullTracer) == public(Tracer)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.layers() == {}
        NULL_TRACER.set_clock(lambda: 1.0)
        assert NULL_TRACER.now() == 0.0


class TestSpanHandles:
    def test_nested_spans_use_distinct_handles(self):
        tracer = Tracer()
        with tracer.span("outer", layer="device") as outer:
            with tracer.span("inner", layer="protocol") as inner:
                assert inner is not outer
                inner.set(depth=1)
            outer.set(depth=0)
        outer_rec, inner_rec = tracer.spans()
        assert outer_rec.attrs == {"depth": 0}
        assert inner_rec.attrs == {"depth": 1}
        assert inner_rec.end <= outer_rec.end

    def test_error_outcome_stays_with_its_own_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom", layer="device"):
                raise RuntimeError("x")
        with tracer.span("fine", layer="device"):
            pass
        boom, fine = tracer.spans()
        assert boom.outcome == "error:RuntimeError"
        assert fine.ok

    def test_span_export_is_valid_json_lines(self):
        tracer = Tracer()
        for i in range(5):
            with tracer.span("op", layer="device", i=i):
                pass
        buf = io.StringIO()
        assert tracer.export(buf) == 5
        records = load_trace(buf.getvalue().splitlines())
        assert [r["attrs"]["i"] for r in records] == list(range(5))
        assert [r["span"] for r in records] == list(range(5))

    @pytest.mark.parametrize("attrs, expected", [
        ({"retries": 2}, {"origin": 0, "retries": 2}),
        ({"repaired": 3}, {"origin": 0, "repaired": 3}),
        ({"repaired": 3, "retries": 2, "origin": 4},
         {"origin": 4, "retries": 2, "repaired": 3}),
    ], ids=["declared", "undeclared", "both"])
    def test_set_round_trips_through_spans_and_export(self, attrs, expected):
        """A declared key is overwritten in place, any other is kept too."""
        tracer = Tracer()
        tracer.event("before", layer="net", n=1)
        with tracer.open_span(
            "device.read", "device", ("origin", "retries"), 0, UNSET
        ) as span:
            assert span.set(**attrs) is span
            tracer.event("inside", layer="net", n=2)
        tracer.event("after", layer="net", n=3)
        before, record, inside, after = tracer.spans()
        assert record.attrs == expected
        assert [r.attrs for r in (before, inside, after)] == [
            {"n": 1}, {"n": 2}, {"n": 3},
        ]
        buf = io.StringIO()
        tracer.export(buf)
        lines = load_trace(buf.getvalue().splitlines())
        assert [line["attrs"] for line in lines] == [
            {"n": 1}, expected, {"n": 2}, {"n": 3},
        ]

    def test_span_read_while_open(self):
        """Mid-operation: end == start, ok, unwritten slots absent."""
        tracer = Tracer(clock=iter([3.0, 8.0]).__next__)
        span = tracer.open_span(
            "device.write", "device", ("origin", "policy", "retries"),
            1, UNSET, UNSET,
        )
        (record,) = tracer.spans()
        assert (record.end, record.outcome) == (None, "")
        assert record.duration == 0.0
        assert record.attrs == {"origin": 1}
        assert tracer.spans(outcome="ok") == []
        buf = io.StringIO()
        tracer.export(buf)
        (line,) = load_trace(buf.getvalue().splitlines())
        assert (line["start"], line["end"], line["outcome"]) == (
            3.0, 3.0, "ok",
        )
        assert line["attrs"] == {"origin": 1}
        with span:
            span.set(retries=0)
        (record,) = tracer.spans()
        assert (record.end, record.outcome) == (8.0, "ok")
        assert record.attrs == {"origin": 1, "retries": 0}

    def test_span_open_across_clear_closes_as_a_noop(self):
        """Its row is gone; it must not write into a later record's."""
        tracer = Tracer()
        tracer.event("dropped", layer="net")
        stale = tracer.open_span("device.read", "device", ("retries",), UNSET)
        tracer.clear()
        tracer.event("kept", layer="net", n=1)
        with tracer.span("scrub.audit", layer="scrub", n=2) as live:
            # Same offsets as the cleared span's row and beyond.
            stale.set(retries=5, repaired=1)
            with pytest.raises(RuntimeError):
                with stale:
                    raise RuntimeError("boom")
            live.set(checked=7)
        tracer.event("later", layer="net", n=3)
        kept, audit, later = tracer.spans()
        assert [r.span_id for r in (kept, audit, later)] == [2, 3, 4]
        assert (kept.name, kept.outcome, kept.attrs) == (
            "kept", "ok", {"n": 1},
        )
        assert (audit.name, audit.outcome, audit.attrs) == (
            "scrub.audit", "ok", {"n": 2, "checked": 7},
        )
        assert (later.name, later.outcome, later.attrs) == (
            "later", "ok", {"n": 3},
        )
        # The tick clock: 1 dropped, 2 stale opens, 3 kept, 4 audit
        # opens, 5 stale closes, 6 audit closes, 7 later.
        assert [(r.start, r.end) for r in (kept, audit, later)] == [
            (3.0, 3.0), (4.0, 6.0), (7.0, 7.0),
        ]
