"""Spans and counts recorded around calls into the workbench's layers.

A span is one call across a layer boundary: its name, start, end, the
span that was open when it began (its parent) and the run id shared by
every span of the run.  Spans and counts stay in memory and are written
out once, when the run ends.  A layer's self time is its spans' duration
minus the part covered by their child spans.

``NullTracer`` is tracing off: the same benchmark code runs through it
with no span recorded, so the untraced end-to-end numbers and the traced
per-layer numbers come from one code path.
"""

import json
import time
import uuid
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: spans are no-op contexts, counts are dropped."""

    enabled = False

    def span(self, name):
        return nullcontext()

    def count(self, name, n=1):
        pass

    def wrap(self, name, fn, counter=None):
        return fn


class Tracer:
    """Records every span and count of one run in memory."""

    enabled = True

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []  # [name, parent index or None, start, end]
        self.counts = defaultdict(int)
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, self._open[-1] if self._open else None, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def count(self, name, n=1):
        self.counts[name] += int(n)

    def wrap(self, name, fn, counter=None):
        """``fn`` with one span per call; ``counter(*args)`` names the
        items the call handles, added to the count ``name + ".items"``."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.count(name + ".calls")
            if counter is not None:
                self.count(name + ".items", counter(*args))
            return result

        return traced

    def durations(self, name):
        return [end - start for span_name, _, start, end in self.spans if span_name == name]

    def totals(self):
        """name -> (calls, total seconds, self seconds)."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, _, start, end), inner in zip(self.spans, covered):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - inner))
        return out

    def total(self, *names):
        totals = self.totals()
        return sum(totals[n][1] for n in names if n in totals)

    def self_time(self, name):
        return self.totals().get(name, (0, 0.0, 0.0))[2]

    def write(self, path):
        """Spans as JSON lines, then one line with the counts."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "run": self.run_id, "id": index, "parent": parent, "name": name,
                    "start_s": start - origin, "end_s": end - origin,
                }) + "\n")
            handle.write(json.dumps({"run": self.run_id, "counts": dict(self.counts)}) + "\n")
