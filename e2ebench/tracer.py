"""Spans recorded from outside the program, around its public calls.

The traced run swaps each wrapped function, at the module attribute
its caller looks it up by, for a wrapper that opens a span.  Nothing
under ``src/`` changes.  Spans carry a name, start, end, parent and run
id, stay in memory, and are written out as JSON when the run ends.  A
span's *self time* is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager


class SpanRecorder:
    """An in-memory span tree for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: One ``[name, start, end, parent_index]`` list per span.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self, root: str) -> tuple[dict[str, float], dict[str, float], float, int]:
        """Self and inclusive seconds per span name under every span
        named ``root``.

        Returns ``(self_s by name, inclusive_s by name, total root
        seconds, number of roots)``; the roots' own self time is
        reported under ``root``.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        under_root = [False] * len(self.spans)
        out: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        total = 0.0
        n_roots = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == root and parent is None:
                under_root[i] = True
                total += end - start
                n_roots += 1
            elif parent is not None and under_root[parent]:
                under_root[i] = True
            else:
                continue
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        return out, inclusive, total, n_roots

    def write(self, path: str) -> str:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _spanned(recorder: SpanRecorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(recorder, args, kwargs, out)
        return out

    return wrapper


@contextmanager
def wrapped(recorder: SpanRecorder, sites):
    """Wrap every ``(owner, attribute, span name[, after])`` site.

    ``owner`` is a module or a class; class- and static methods keep
    their descriptor kind.  ``after(recorder, args, kwargs, result)``
    runs outside the span to record counts.  Everything is restored on
    exit, innermost last-in first-out.
    """
    saved = []
    try:
        for site in sites:
            owner, attr, name = site[:3]
            after = site[3] if len(site) > 3 else None
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(_spanned(recorder, name, raw.__func__, after))
            elif isinstance(raw, staticmethod):
                new = staticmethod(_spanned(recorder, name, raw.__func__, after))
            else:
                new = _spanned(recorder, name, raw, after)
            setattr(owner, attr, new)
            saved.append((owner, attr, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(recorder: SpanRecorder, root: str, names, counts=(), inclusive=()):
    """Per-layer seconds per root operation, plus shares of the total.

    ``names`` maps metric name -> span names summed into it.  Returns
    ``{metric: (value, unit)}`` with ``<layer>_s``, a ``<layer>_share``
    for each, ``core.other_s`` (root self time), the counts per root
    operation, and ``<span>_incl_share`` (children included) for each
    span name in ``inclusive``.
    """
    self_s, incl_s, total, n_roots = recorder.self_times(root)
    n = max(n_roots, 1)

    def share(seconds: float) -> float:
        return seconds / total if total > 0 else 0.0

    out = {}
    for metric, spans in names.items():
        seconds = sum(self_s.get(s, 0.0) for s in spans)
        out[metric] = (seconds / n, "s")
        out[metric[: -len("_s")] + "_share"] = (share(seconds), "fraction")
    other = self_s.get(root, 0.0)
    out["core.other_s"] = (other / n, "s")
    out["core.other_share"] = (share(other), "fraction")
    out["core.traced_total_s"] = (total / n, "s")
    for metric in counts:
        out[metric] = (recorder.counts.get(metric, 0) / n, "count")
    for span in inclusive:
        out[span + "_incl_share"] = (share(incl_s.get(span, 0.0)), "fraction")
    return out
