"""In-memory span recorder installed around a package's functions.

A span is (id, name, start, end, parent id, request id, nested) with times
from time.perf_counter.  `nested` marks a span opened while another span
of the same name was open, so inclusive totals count outermost calls only.
Spans stay in memory until dump() writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request = "none"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str):
        st = self._stack()
        parent = st[-1][0] if st else None
        nested = any(n == name for _, n in st)
        request = self.request
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        st.append((sid, name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans[sid] = (sid, name, t0, t1, parent, request, nested)

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(args, kwargs, result) updates self.counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out
        return traced

    def install(self, targets, modules) -> None:
        """Replace each target by its traced form.

        targets: (name, owner, attr, count) with owner a module or class.
        A module-level function is replaced in every module of `modules`
        that holds it, so `from x import f` references are traced too.
        """
        for name, owner, attr, count in targets:
            if isinstance(owner, type):
                orig = vars(owner)[attr]
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, count))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, count)
            for holder in modules:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._patched.append((holder, key, orig))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()

    # --- aggregation -------------------------------------------------------------

    def finished(self, requests) -> list[tuple]:
        return [s for s in self.spans if s is not None and s[5] in requests]

    def inclusive(self, requests) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for sid, name, t0, t1, parent, req, nested in self.finished(requests):
            if not nested:
                out[name] += t1 - t0
        return out

    def self_times(self, requests) -> dict[str, float]:
        """Span name -> total self time (duration minus child coverage)."""
        spans = self.finished(requests)
        child = defaultdict(float)
        for sid, name, t0, t1, parent, req, nested in spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, name, t0, t1, parent, req, nested in spans:
            out[name] += (t1 - t0) - child[sid]
        return out

    def durations(self, name: str, requests) -> list[float]:
        return [t1 - t0 for _, n, t0, t1, _, _, _ in self.finished(requests)
                if n == name]

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request", "nested")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(dict(zip(keys, s))) + "\n")
