"""Span tracer and profile attributor for the traced pass.

Both work from outside the program.  :class:`SpanTracer` replaces
*instance attributes* with timing closures, which intercepts every call
that is looked up on the instance at call time (``self._device.read_block``,
``network.broadcast_round`` ...).  A call made through a bound method
that was cached before patching bypasses the closure; the span-vs-counter
cross-check in :mod:`workloads` detects that, and the layer then takes its
self time from :func:`bucket_profile` instead -- a ``cProfile`` run whose
per-function ``tottime`` is summed by source module.
"""

from __future__ import annotations

import cProfile
import gzip
import json
import time
from contextlib import contextmanager

#: Source path fragment -> layer, first match wins.
MODULE_LAYERS = (
    ("/repro/fs/", "fs"),
    ("/repro/device/driver.py", "device.driver"),
    ("/repro/device/cache.py", "device.cache"),
    ("/repro/device/reliable.py", "device.reliable"),
    ("/repro/device/site.py", "device.site"),
    ("/repro/device/block.py", "device.site"),
    ("/repro/device/scrub.py", "faults"),
    ("/repro/device/", "device.other"),
    ("/repro/core/", "core"),
    ("/repro/net/", "net"),
    ("/repro/sim/engine.py", "sim.engine"),
    ("/repro/sim/", "sim.failures"),
    ("/repro/membership/", "membership"),
    ("/repro/faults/", "faults"),
    ("/repro/obs/", "obs"),
    ("/repro/exec/", "exec"),
    ("/repro/", "repro.other"),
    ("/benchmarks/stack/", "bench"),
)


class SpanTracer:
    """In-memory spans: (name, layer, start, end, parent, op, weight)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._op = -1
        #: Closures pass calls straight through while this is False, so
        #: set-up and checks leave no spans.
        self.live = False

    def wrap(self, fn, name, layer, weigh=None, gauge=None, client=False):
        """``fn`` timed as one span per call.

        ``weigh(args, result)`` gives the span a weight on success (blocks
        moved, say); ``gauge()`` is read before and after and the weight is
        the difference.  ``client`` marks the calls the load generator
        makes: each starts a new op id, shared by every span below it.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.live:
                return fn(*args, **kwargs)
            if client:
                self._op += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            weight = 0
            before = gauge() if gauge is not None else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if weigh is not None:
                    weight = weigh(args, result)
                return result
            finally:
                end = clock()
                if gauge is not None:
                    weight = gauge() - before
                stack.pop()
                spans[index] = (
                    name, layer, start, end, parent, self._op, weight
                )

        return traced

    def patch(self, obj, method, layer, **kwargs) -> None:
        """Shadow ``obj.method`` with its traced form on the instance."""
        name = f"{type(obj).__name__}.{method}"
        setattr(obj, method, self.wrap(
            getattr(obj, method), name, layer, **kwargs
        ))

    @contextmanager
    def span(self, name, layer):
        """A span around a block of the load generator's own code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (
                name, layer, start, end, parent, self._op, 0
            )

    # -- analysis -------------------------------------------------------------

    def self_seconds(self) -> dict:
        """Layer -> summed self time (span minus the spans it caused)."""
        own = [end - start for _, _, start, end, _, _, _ in self.spans]
        for index, span in enumerate(self.spans):
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        totals: dict = {}
        for span, seconds in zip(self.spans, own):
            totals[span[1]] = totals.get(span[1], 0.0) + seconds
        return totals

    def select(self, layer, outermost=False) -> list:
        """Spans of ``layer``; ``outermost`` drops those nested directly
        in another span of the same layer."""
        spans = self.spans
        return [
            s for s in spans if s[1] == layer
            and not (outermost and s[4] >= 0 and spans[s[4]][1] == layer)
        ]

    def weight(self, layer, outermost=False):
        """Summed weight of the spans of ``layer``."""
        return sum(s[6] for s in self.select(layer, outermost))

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines: a header naming the
        fields, then one array per span.  Compressed because a quarter of
        a million spans is 30 MB of text, and writing that much between
        runs disturbs the timings of the next one."""
        fields = ["name", "layer", "start", "end", "parent", "op"]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span[:6]) + "\n")


def durations_us(spans) -> list:
    return sorted((end - start) * 1e6 for _, _, start, end, _, _, _ in spans)


def percentile(ordered, q):
    """Nearest-rank percentile of an already sorted list (0 if empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def bucket_profile(profiler: cProfile.Profile):
    """(layer -> tottime, (file tail, function) -> calls) of a profile.

    A builtin's own time is charged to the module that called it (the
    profiler records callees per caller), so heap pushes land in the
    engine and dict probes in whichever layer made them.
    """
    seconds: dict = {}
    calls: dict = {}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        layer = "host"
        for fragment, name in MODULE_LAYERS:
            if fragment in code.co_filename:
                layer = name
                break
        spent = entry.inlinetime + sum(
            sub.inlinetime for sub in entry.calls or ()
            if isinstance(sub.code, str)
        )
        seconds[layer] = seconds.get(layer, 0.0) + spent
        key = (code.co_filename.rsplit("/", 1)[-1], code.co_name)
        calls[key] = calls.get(key, 0) + entry.callcount
    return seconds, calls
