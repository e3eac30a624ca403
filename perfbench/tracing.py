"""Spans and counts recorded around the benchmark's calls into symcube.

Both tracers count operations.  ``NullTracer`` calls straight through and is
what an untraced run uses, so end-to-end timings carry no span bookkeeping.
``Tracer`` keeps every span in memory (id, parent, round, layer, function
name, start, end) and writes them out once, when the run ends.  A layer's
self time is the duration of its spans minus the part covered by their child
spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from array import array
from collections import defaultdict
from time import perf_counter_ns


def _qualname(fn) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"


class NullTracer:
    """Untraced mode: no spans, no counts, one integer increment per call.

    Given a ``speed.Clock``, it lets the clock cut a calibration point after
    any call that ends a long enough segment.
    """

    enabled = False

    def __init__(self, clock=None):
        self.ops = 0
        self.round = 0
        self.clock = clock

    def call(self, layer, fn, *args, **kwargs):
        self.ops += 1
        out = fn(*args, **kwargs)
        if self.clock is not None:
            self.clock.tick()
        return out

    def span(self, layer):
        return contextlib.nullcontext()

    def count(self, name, n):
        pass


class Tracer(NullTracer):
    """Traced mode: a span around every call, counts at the same boundaries.

    Spans are stored column-wise in arrays (a span's id is its index), which
    keeps hundreds of thousands of them small in memory.
    """

    enabled = True
    COLUMNS = ("parent", "round", "layer", "name", "start_ns", "end_ns")

    def __init__(self):
        super().__init__()   # no clock: spans time the calls undisturbed
        self.cols = {c: array("q") for c in self.COLUMNS}
        self.layers, self.names = {}, {}
        self.counts = []          # [round, name, n]
        self._stack = [-1]

    def __len__(self):
        return len(self.cols["start_ns"])

    def _open(self, layer, name):
        sid = len(self)
        c = self.cols
        c["parent"].append(self._stack[-1])
        c["round"].append(self.round)
        c["layer"].append(self.layers.setdefault(layer, len(self.layers)))
        c["name"].append(self.names.setdefault(name, len(self.names)))
        c["end_ns"].append(0)
        self._stack.append(sid)
        c["start_ns"].append(perf_counter_ns())
        return sid

    def _close(self, sid):
        self.cols["end_ns"][sid] = perf_counter_ns()
        self._stack.pop()

    def call(self, layer, fn, *args, **kwargs):
        self.ops += 1
        sid = self._open(layer, _qualname(fn))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    @contextlib.contextmanager
    def span(self, layer):
        sid = self._open(layer, layer)
        try:
            yield
        finally:
            self._close(sid)

    def count(self, name, n):
        self.counts.append([self.round, name, n])

    def layer_self_times(self):
        """{round: {layer: self seconds}} over every span."""
        c = self.cols
        dur = [(b - a) * 1e-9 for a, b in zip(c["start_ns"], c["end_ns"])]
        covered = [0.0] * len(dur)
        for sid, parent in enumerate(c["parent"]):
            if parent >= 0:
                covered[parent] += dur[sid]
        layer_name = {i: k for k, i in self.layers.items()}
        out = defaultdict(lambda: defaultdict(float))
        for sid, (rnd, layer) in enumerate(zip(c["round"], c["layer"])):
            out[rnd][layer_name[layer]] += dur[sid] - covered[sid]
        return out

    def layer_counts(self):
        """{round: {name: total}} over every recorded count."""
        out = defaultdict(lambda: defaultdict(int))
        for rnd, name, n in self.counts:
            out[rnd][name] += n
        return out

    def spans_per_round(self):
        out = defaultdict(int)
        for rnd in self.cols["round"]:
            out[rnd] += 1
        return out

    def medians(self):
        """Median over rounds of each layer's self time and each count."""
        times, counts = self.layer_self_times(), self.layer_counts()
        rounds = sorted(set(times) | set(counts))
        layers = sorted({k for r in times.values() for k in r})
        names = sorted({k for r in counts.values() for k in r})
        med_t = {k: statistics.median(times[r].get(k, 0.0) for r in rounds) for k in layers}
        med_c = {k: statistics.median(counts[r].get(k, 0) for r in rounds) for k in names}
        return med_t, med_c

    def write(self, path, **meta):
        """All spans and counts, as one compressed numpy archive."""
        import numpy as np
        np.savez_compressed(
            path, meta=np.array(json.dumps(meta)),
            layers=np.array(sorted(self.layers, key=self.layers.get)),
            names=np.array(sorted(self.names, key=self.names.get)),
            counts=np.array(json.dumps(self.counts)),
            **{k: np.frombuffer(v, dtype=np.int64) for k, v in self.cols.items()})
