"""Structured tracing: span-style events for one operation's whole path.

The paper's evaluation is quantitative -- availability from Markov models
(Section 4) and per-operation traffic (Section 5) -- but *debugging* a
replicated device needs to see one operation travel device -> protocol ->
network (and the background scrub and chaos machinery around it).  A
:class:`Tracer` collects records from every layer:

* ``device.*``     -- :class:`~repro.device.reliable.ReliableDevice` ops,
  with retry counts and outcomes;
* ``protocol.*``   -- each scheme's read/write/batch rounds and recovery;
* ``net.*``        -- request/reply transmissions with category and bytes;
* ``scrub.*``      -- audit and repair passes;
* ``chaos.*``      -- injected faults and repairs;
* ``membership.*`` -- view-change opens, catch-up steps and commits.

There is one emit path.  :meth:`Tracer.emit` (a point event) and
:meth:`Tracer.open_span` (a span, closed by its handle) take the
attribute dict positionally and are the only code that assigns a span
id, reads the clock for a new record and appends it; ``event(**attrs)``
/ ``span(**attrs)`` are their keyword spellings.  Every record is
stored in one layout, ``[id, name, layer, start, end, outcome,
attrs]``, and becomes a :class:`SpanRecord` only when queried
(:meth:`Tracer.spans`) or exported as JSON lines
(:meth:`Tracer.export`).

Timestamps are **simulated** time when the tracer is built with a clock
(``Tracer(clock=sim.now_reader())``); without one a logical tick
counter is installed as the clock and keeps records totally ordered.

Tracing defaults to *off* everywhere via the shared :data:`NULL_TRACER`,
whose span handles are single pre-allocated no-ops -- the hot paths pay
one attribute lookup and an empty context manager, nothing more.  The
``block_mcv`` / ``block_mcv_obs`` workloads of ``benchmarks/stack``
measure the off and the on cost.
"""

from __future__ import annotations

import itertools
import json
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    List,
    Optional,
    Sequence,
)

__all__ = [
    "SpanRecord",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
    "validate_trace_record",
    "load_trace",
]

#: Version stamped on every exported JSON line (schema evolution guard).
TRACE_SCHEMA_VERSION = 1

#: Layers a span may belong to; the schema validator enforces membership.
LAYERS = (
    "device", "protocol", "net", "scrub", "chaos", "workload",
    "membership",
)

#: Frozenset mirror of :data:`LAYERS` for the per-record membership check
#: (hash probe instead of a linear tuple scan on the recording path).
_LAYER_SET = frozenset(LAYERS)

OUTCOME_OK = "ok"

# Slots of a stored record ``[id, name, layer, start, end, outcome,
# attrs]`` that are read or written by position outside the primitives.
_NAME, _LAYER, _END, _OUTCOME, _ATTRS = 1, 2, 4, 5, 6


class SpanRecord:
    """One finished (or still open) span: who, when, what happened.

    A view of one stored record, built per query; ``attrs`` is the
    record's own dict, not a copy.
    """

    __slots__ = (
        "span_id", "name", "layer", "start", "end", "outcome", "attrs",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        layer: str,
        start: float,
        end: Optional[float],
        outcome: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.outcome = outcome
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Sim-time the span covered (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.outcome == OUTCOME_OK

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-lines representation (one trace line)."""
        return {
            "v": TRACE_SCHEMA_VERSION,
            "span": self.span_id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "outcome": self.outcome or OUTCOME_OK,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, layer={self.layer!r}, "
            f"start={self.start:g}, outcome={self.outcome!r})"
        )


class Span:
    """Live handle to an open span; a context manager.

    On exit the span's end time is stamped and its outcome becomes
    ``"ok"`` or ``"error:<ExceptionType>"``; exceptions always
    propagate.  :meth:`set` attaches attributes at any point while the
    span is open.
    """

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: List[Any]) -> None:
        self._tracer = tracer
        self._record = record

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) span attributes."""
        self._record[_ATTRS].update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        record = self._record
        record[_END] = self._tracer.now()
        record[_OUTCOME] = (
            OUTCOME_OK if exc_type is None
            else f"error:{exc_type.__name__}"
        )
        return False


class _NullSpan:
    """Shared no-op span handle: the entire cost of tracing-off."""

    __slots__ = ()

    def set(self, **_attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that records nothing (the default everywhere).

    It has every public attribute of :class:`Tracer` (a test compares
    the two sets), so instrumented code never branches on whether
    tracing is on; every call is a no-op returning shared singletons.
    """

    enabled = False

    def now(self) -> float:
        return 0.0

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        return None

    def emit(self, name: str, layer: str, attrs: Dict[str, Any]) -> None:
        return None

    def open_span(
        self, name: str, layer: str, attrs: Dict[str, Any]
    ) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, layer: str = "", **attrs: Any) -> None:
        return None

    def span(self, name: str, layer: str = "", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def spans(self, **_filters: Any) -> List[SpanRecord]:
        return []

    def layers(self) -> Dict[str, int]:
        return {}

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        return None

    def export(self, stream: IO[str]) -> int:
        return 0

    def dump(self, path: str) -> int:
        return 0


#: The process-wide disabled tracer; instrumented classes default to it.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans and point events from every instrumented layer.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (simulated) time.
        Omitted, a logical tick counter is installed as the clock: each
        read advances it by one, keeping records totally ordered.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        #: The logical clock: 1, 2, 3, ... over the tracer's lifetime.
        self._tick: Callable[[], float] = itertools.count(1).__next__
        self._next_id = 0
        #: Records in creation order, each ``[id, name, layer, start,
        #: end, outcome, attrs]``: a tuple for an event (complete when
        #: appended), a list for a span (``end`` stays None until its
        #: handle stamps end and outcome on exit).
        self._records: List[Sequence[Any]] = []
        self.set_clock(clock)

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        """Current trace time, read from the installed clock."""
        return float(self._clock())

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Install the time source (None: back to the tick counter)."""
        self._clock = clock if clock is not None else self._tick

    # -- recording: the two primitives --------------------------------------

    def emit(self, name: str, layer: str, attrs: Dict[str, Any]) -> None:
        """Record an instantaneous event (a zero-duration ok span).

        The tracer keeps ``attrs`` itself, not a copy.
        """
        if layer not in _LAYER_SET:
            raise ValueError(
                f"unknown trace layer {layer!r}; expected one of {LAYERS}"
            )
        at = float(self._clock())
        self._records.append(
            (self._next_id, name, layer, at, at, OUTCOME_OK, attrs)
        )
        self._next_id += 1

    def open_span(
        self, name: str, layer: str, attrs: Dict[str, Any]
    ) -> Span:
        """Open a span; use as a context manager around the operation.

        The tracer keeps ``attrs`` itself, not a copy.
        """
        if layer not in _LAYER_SET:
            raise ValueError(
                f"unknown trace layer {layer!r}; expected one of {LAYERS}"
            )
        record = [
            self._next_id, name, layer, float(self._clock()),
            None, "", attrs,
        ]
        self._next_id += 1
        self._records.append(record)
        return Span(self, record)

    def event(self, name: str, layer: str, **attrs: Any) -> None:
        """:meth:`emit` with the attributes spelled as keywords."""
        self.emit(name, layer, attrs)

    def span(self, name: str, layer: str, **attrs: Any) -> Span:
        """:meth:`open_span` with the attributes spelled as keywords."""
        return self.open_span(name, layer, attrs)

    # -- in-process queries --------------------------------------------------

    def spans(
        self,
        name: Optional[str] = None,
        layer: Optional[str] = None,
        outcome: Optional[str] = None,
    ) -> List[SpanRecord]:
        """Recorded spans, optionally filtered.

        ``name`` matches exactly or as a ``"prefix."`` when it ends with
        a dot; ``outcome="ok"`` selects successes, ``outcome="error"``
        any failure.  A still-open span has ``end`` None and an empty
        outcome.
        """
        out = []
        for raw in self._records:
            if layer is not None and raw[_LAYER] != layer:
                continue
            if name is not None:
                if name.endswith("."):
                    if not raw[_NAME].startswith(name):
                        continue
                elif raw[_NAME] != name:
                    continue
            if outcome is not None:
                if outcome == "error":
                    if not raw[_OUTCOME].startswith("error:"):
                        continue
                elif raw[_OUTCOME] != outcome:
                    continue
            out.append(SpanRecord(*raw))
        return out

    def layers(self) -> Dict[str, int]:
        """Span counts per layer (a quick shape check of a trace)."""
        counts: Dict[str, int] = {}
        for raw in self._records:
            counts[raw[_LAYER]] = counts.get(raw[_LAYER], 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop every recorded span (ids keep increasing)."""
        self._records.clear()

    # -- JSON lines ---------------------------------------------------------

    def export(self, stream: IO[str]) -> int:
        """Write every record as one JSON line; returns the line count."""
        for raw in self._records:
            # ``dumps`` runs the C encoder; ``json.dump`` into a stream
            # always takes the pure-Python ``iterencode`` path.
            line = json.dumps(SpanRecord(*raw).to_dict(), sort_keys=True)
            stream.write(line + "\n")
        return len(self._records)

    def dump(self, path: str) -> int:
        """Export to ``path``; returns the number of lines written."""
        with open(path, "w", encoding="utf-8") as handle:
            return self.export(handle)


# -- schema validation ---------------------------------------------------------

#: Required top-level keys of a trace line and their types.
_SCHEMA = {
    "v": int,
    "span": int,
    "name": str,
    "layer": str,
    "start": (int, float),
    "end": (int, float),
    "outcome": str,
    "attrs": dict,
}


def validate_trace_record(obj: Any) -> List[str]:
    """Schema-check one parsed trace line; returns the violations."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"trace line is {type(obj).__name__}, expected object"]
    for key, expected in _SCHEMA.items():
        if key not in obj:
            problems.append(f"missing key {key!r}")
        elif not isinstance(obj[key], expected):
            problems.append(
                f"key {key!r} is {type(obj[key]).__name__}"
            )
    if not problems:
        if obj["v"] != TRACE_SCHEMA_VERSION:
            problems.append(f"unknown schema version {obj['v']}")
        if obj["layer"] not in LAYERS:
            problems.append(f"unknown layer {obj['layer']!r}")
        if obj["end"] < obj["start"]:
            problems.append("end precedes start")
        if not (obj["outcome"] == OUTCOME_OK
                or obj["outcome"].startswith("error:")):
            problems.append(f"bad outcome {obj['outcome']!r}")
    return problems


def load_trace(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """Parse and validate JSON-lines trace content.

    Raises ``ValueError`` naming the first offending line when the
    content does not conform to the schema.
    """
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: not JSON ({exc})")
        problems = validate_trace_record(obj)
        if problems:
            raise ValueError(
                f"trace line {lineno}: {'; '.join(problems)}"
            )
        records.append(obj)
    return records
