"""In-memory span tracer that wraps public callables of ``hfsem``.

A span is ``(name, start, end, parent)``, plus the fields of the result a
layer metric needs and the name of the exception the call raised, if any;
``parent`` is the index of the enclosing span or -1.  Spans are kept in a
list while the traced code runs and written out once at the end.
Wrappers are installed at the attribute a caller looks the callable up by
(a module global, a module attribute or a class attribute) and the
original objects are put back when the ``installed`` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent, info, raised].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        """Return ``fn`` recording one span per call.

        ``info(args, kwargs, result)``, when given, stores what the layer
        metrics need from a call (a work measure or fields of the result)
        on the span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attr, span_name, info)`` target, then restore."""
        saved = []
        try:
            for owner, attr, span_name, info in targets:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(span_name, raw.__func__, info))
                    else:
                        new = self.wrap(span_name, raw, info)
                else:
                    raw = getattr(owner, attr)
                    new = self.wrap(span_name, raw, info)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover.

        Children of one span run one after another on the same thread, so
        the time they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def summary(self, wall_s: float) -> dict:
        """Calls, self and inclusive time per span name, self time per layer.

        A layer is the part of a span name before the first dot.
        ``covered_share`` is the share of ``wall_s`` that the traced
        layers' self time accounts for.
        """
        self_t = self.self_times()
        per_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        per_layer = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            row = per_name[name]
            row["calls"] += 1
            row["self_s"] += self_t[i]
            row["incl_s"] += end - start
            per_layer[name.split(".", 1)[0]] += self_t[i]
        return {"wall_s": wall_s,
                "covered_share": sum(self_t) / wall_s,
                "per_layer_self_s": dict(sorted(per_layer.items())),
                "per_span": {k: per_name[k] for k in sorted(per_name)}}

    def write(self, path, wall_s: float, meta: dict) -> None:
        """Write the spans (with self time) and the summary as one JSON file."""
        self_t = self.self_times()
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[name], round(start - t0, 9), round(end - t0, 9), parent,
                 round(self_t[i], 9)]
                for i, (name, start, end, parent, _, _) in enumerate(self.spans)]
        doc = {"meta": meta, "summary": self.summary(wall_s),
               "span_columns": ["name", "start_s", "end_s", "parent", "self_s"],
               "names": names, "spans": rows}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
