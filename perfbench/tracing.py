"""In-memory spans around calls into the package's public functions.

A span is (name, start, end, parent, run id). The tracer wraps module
functions from outside, rebinding every ``slotlogic`` module attribute
that refers to the original, so calls made inside the package (``train``
calling ``loss_and_grad``, ``predict_record`` calling ``crisp_infer``)
are seen too. Nothing is patched while tracing is off.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_ = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent_)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``owner.attr``; ``on_result``
        gets (counts, args, result) to add counters at the same boundary."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        targets = [owner]
        if not isinstance(owner, type):  # a method has one binding only
            targets += [
                m for key, m in list(sys.modules.items())
                if key.startswith("slotlogic") and m is not owner
                and getattr(m, attr, None) is original
            ]
        for t in targets:
            self._patches.append((t, attr, original))
            setattr(t, attr, wrapper)

    def unwrap_all(self) -> None:
        for t, attr, original in reversed(self._patches):
            setattr(t, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name].append(end - start - child[i])
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "run": self.run_id}
                    )
                    + "\n"
                )
