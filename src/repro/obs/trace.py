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
:meth:`Tracer.open_span` (a span, closed by its handle) take a tuple of
attribute names and the values positionally, and are the only code that
reads the clock for a new record and appends it; ``event(**attrs)`` /
``span(**attrs)`` are their keyword spellings.

There is one store: a flat list in which a record is the run ``name,
layer, start, end, outcome, keys, v0 ... vk``.  ``keys`` is the names
tuple the caller passed -- a module-level constant at the hot emit
sites, so every record of one shape shares it -- and the values follow
it in place.  A record therefore costs two ``list.extend`` calls with
references to objects that already exist and allocates nothing the
garbage collector tracks: no tuple, no dict, no id.  (With a tuple and
a dict per record, a 20 000-operation traced run held ~145 k extra
tracked containers and ran ~415 collections; it now runs none.)  Ids
are implicit in scan order, a :class:`Span` handle remembers the offset
of its row and stamps ``end`` / ``outcome`` there on exit, and the
attrs dict, the :class:`SpanRecord` and the JSON line are built only
when queried (:meth:`Tracer.spans`) or exported (:meth:`Tracer.export`).

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
    Iterator,
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

#: Value of a declared attribute slot that has not been written (yet):
#: hot emit sites pass it for a key whose value arrives later
#: (``retries``) or not at all (``policy``, ``local``); such a slot is
#: left out of the attrs dict, so a record reads the same as if the key
#: had been attached only when it was set.
UNSET: Any = object()

# Offsets within a stored record ``name, layer, start, end, outcome,
# keys, v0 ... vk``; the record's length is ``_VALUES + len(keys)``.
_NAME, _LAYER, _START, _END, _OUTCOME, _KEYS, _VALUES = range(7)


class SpanRecord:
    """One finished (or still open) span: who, when, what happened.

    A view of one stored record, built per query; ``attrs`` is a dict
    built for this view (the store holds no dict), so changing it
    changes nothing recorded.
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

    The handle holds the log it was opened in and the offset of its
    row there.  :meth:`Tracer.clear` starts a new log, so a span that
    is still open across a ``clear()`` writes into the dropped one and
    never into a later record's row.
    """

    __slots__ = ("_tracer", "_log", "_at")

    def __init__(self, tracer: "Tracer", log: List[Any], at: int) -> None:
        self._tracer = tracer
        self._log = log
        self._at = at

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) span attributes.

        A key the span declared when it was opened is overwritten in
        its slot; any other key goes to the tracer's side table.
        """
        log, at = self._log, self._at
        keys = log[at + _KEYS]
        for key, value in attrs.items():
            if key in keys:
                log[at + _VALUES + keys.index(key)] = value
            elif log is self._tracer._log:
                self._tracer._undeclared.setdefault(at, {})[key] = value
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        log, at = self._log, self._at
        log[at + _END] = self._tracer.now()
        log[at + _OUTCOME] = (
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

    It has every public attribute of :class:`Tracer`, with the same
    parameters (a test compares the two), so instrumented code never
    branches on whether tracing is on; every call is a no-op returning
    shared singletons.
    """

    enabled = False

    def now(self) -> float:
        return 0.0

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        return None

    def emit(
        self, name: str, layer: str, keys: Sequence[str], *values: Any
    ) -> None:
        return None

    def open_span(
        self, name: str, layer: str, keys: Sequence[str], *values: Any
    ) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, layer: str, **attrs: Any) -> None:
        return None

    def span(self, name: str, layer: str, **attrs: Any) -> _NullSpan:
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


def _bad_record(
    layer: str, keys: Sequence[str], values: Sequence[Any]
) -> ValueError:
    """Why a primitive refused a record (built off the recording path)."""
    if layer not in _LAYER_SET:
        return ValueError(
            f"unknown trace layer {layer!r}; expected one of {LAYERS}"
        )
    return ValueError(
        f"{len(values)} attribute values for the {len(keys)} keys {keys!r}"
    )


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
        #: Every record in creation order, flat: ``name, layer, start,
        #: end, outcome, keys, v0 ... vk`` (see the module docstring).
        #: An event is complete when appended; a span's ``end`` stays
        #: None and its ``outcome`` empty until its handle stamps them.
        self._log: List[Any] = []
        #: Span id of the first record in the log (ids are positions in
        #: scan order and keep increasing across :meth:`clear`).
        self._first_id = 0
        #: Attributes a span was given by :meth:`Span.set` under a key
        #: it had not declared, by row offset.
        self._undeclared: Dict[int, Dict[str, Any]] = {}
        self.set_clock(clock)

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        """Current trace time, read from the installed clock."""
        return float(self._clock())

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Install the time source (None: back to the tick counter)."""
        self._clock = clock if clock is not None else self._tick

    # -- recording: the two primitives --------------------------------------

    def emit(
        self, name: str, layer: str, keys: Sequence[str], *values: Any
    ) -> None:
        """Record an instantaneous event (a zero-duration ok span).

        ``keys`` names the attributes, ``values`` gives them in the
        same order; the tracer keeps ``keys`` itself, so a call site
        that passes one module-level tuple allocates nothing per event.
        """
        if layer not in _LAYER_SET or len(values) != len(keys):
            raise _bad_record(layer, keys, values)
        at = float(self._clock())
        log = self._log
        log.extend((name, layer, at, at, OUTCOME_OK, keys))
        log.extend(values)

    def open_span(
        self, name: str, layer: str, keys: Sequence[str], *values: Any
    ) -> Span:
        """Open a span; use as a context manager around the operation.

        ``keys`` / ``values`` as for :meth:`emit`; pass :data:`UNSET`
        for a declared key whose value :meth:`Span.set` supplies later.
        """
        if layer not in _LAYER_SET or len(values) != len(keys):
            raise _bad_record(layer, keys, values)
        log = self._log
        at = len(log)
        log.extend((name, layer, float(self._clock()), None, "", keys))
        log.extend(values)
        return Span(self, log, at)

    def event(self, name: str, layer: str, **attrs: Any) -> None:
        """:meth:`emit` with the attributes spelled as keywords."""
        self.emit(name, layer, tuple(attrs), *attrs.values())

    def span(self, name: str, layer: str, **attrs: Any) -> Span:
        """:meth:`open_span` with the attributes spelled as keywords."""
        return self.open_span(name, layer, tuple(attrs), *attrs.values())

    # -- in-process queries --------------------------------------------------

    def _rows(self) -> Iterator[int]:
        """Offset of every record's row in the log, in creation order."""
        log = self._log
        at, stop = 0, len(log)
        while at < stop:
            yield at
            at += _VALUES + len(log[at + _KEYS])

    def _select(
        self,
        name: Optional[str] = None,
        layer: Optional[str] = None,
        outcome: Optional[str] = None,
    ) -> Iterator[SpanRecord]:
        """:meth:`spans`, one record at a time.

        Filters on the stored slots; only a record that passes gets an
        attrs dict and a :class:`SpanRecord` built for it.
        """
        log = self._log
        undeclared = self._undeclared
        for span_id, at in enumerate(self._rows(), self._first_id):
            if layer is not None and log[at + _LAYER] != layer:
                continue
            if name is not None:
                if name.endswith("."):
                    if not log[at + _NAME].startswith(name):
                        continue
                elif log[at + _NAME] != name:
                    continue
            if outcome is not None:
                if outcome == "error":
                    if not log[at + _OUTCOME].startswith("error:"):
                        continue
                elif log[at + _OUTCOME] != outcome:
                    continue
            keys = log[at + _KEYS]
            values = log[at + _VALUES:at + _VALUES + len(keys)]
            attrs = {
                key: value for key, value in zip(keys, values)
                if value is not UNSET
            }
            if at in undeclared:
                attrs.update(undeclared[at])
            yield SpanRecord(span_id, *log[at:at + _KEYS], attrs)

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
        return list(self._select(name, layer, outcome))

    def layers(self) -> Dict[str, int]:
        """Span counts per layer (a quick shape check of a trace)."""
        log = self._log
        counts: Dict[str, int] = {}
        for at in self._rows():
            layer = log[at + _LAYER]
            counts[layer] = counts.get(layer, 0) + 1
        return counts

    def __len__(self) -> int:
        return sum(1 for _ in self._rows())

    def clear(self) -> None:
        """Drop every recorded span (ids keep increasing)."""
        self._first_id += len(self)
        # A new list, not ``.clear()``: handles of spans still open
        # keep the old one and close into it.
        self._log = []
        self._undeclared = {}

    # -- JSON lines ---------------------------------------------------------

    def export(self, stream: IO[str]) -> int:
        """Write every record as one JSON line; returns the line count."""
        # One encoder for the whole trace: ``json.dumps(sort_keys=True)``
        # builds a new one per call.  ``encode`` runs the C encoder;
        # ``json.dump`` into a stream takes the pure-Python path.
        encode = json.JSONEncoder(sort_keys=True).encode
        lines = 0
        for lines, record in enumerate(self._select(), 1):
            stream.write(encode(record.to_dict()) + "\n")
        return lines

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
