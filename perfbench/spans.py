"""Benchmark-side tracing: spans around the public entry point of each layer.

The traced run wraps methods of the program's classes from here, so the
per-layer breakdown needs no change to the program.  Each span records
its name, start, end, parent span and tick id; spans are kept in memory
and summarised when the run ends.  A layer's self time is its span's
duration minus that of its direct children.

Wrappers run only in the process that installed them and only while the
recorder is active: forked shard children inherit the patched classes
but call straight through, and checks run between ticks are not traced.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: A wrapped call's counts: ``(args, kwargs, result) -> {counter: value}``.
CountFn = Callable[[tuple, dict, object], Dict[str, float]]


class SpanRecorder:
    """Collects spans and per-span counts for the traced ticks."""

    def __init__(self) -> None:
        self.active = False
        self.tick = 0
        # (name, start, end, parent index, tick)
        self.spans: List[Tuple[str, float, float, Optional[int], int]] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._patches: List[Tuple[type, str, bool, object]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, self.tick))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.tick)

    def wrap(self, owner: type, attr: str, name: str, counter: Optional[CountFn] = None) -> None:
        """Patch ``owner.attr`` with a span-recording wrapper.

        Missing attributes are skipped, so the benchmark keeps running
        when a layer's entry point is renamed; its metrics then read 0.
        """
        raw = owner.__dict__.get(attr)
        existed = raw is not None
        target = getattr(owner, attr, None)
        if target is None:
            return
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else target
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder.active or os.getpid() != recorder._pid:
                return func(*args, **kwargs)
            result = recorder.span(name, func, *args, **kwargs)
            if counter is not None:
                counts = recorder.counts[recorder.tick]
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, existed, raw))

    def unwrap_all(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, existed, raw in reversed(self._patches):
            if existed:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches = []

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``{tick: {span name: self seconds}}`` over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, tick) in enumerate(self.spans):
            out[tick][name] += end - start - child_time[index]
        return out
