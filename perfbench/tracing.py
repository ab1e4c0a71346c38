"""In-memory spans and a stack-sampling thread for the traced run.

Spans are recorded by the benchmark around its calls into the library's
public functions; nothing inside ``src/`` is instrumented.  The sampler
is the traced pass's one extra thread beside the speed probe that every
pass runs (``workloads.SpeedProbe``): every few milliseconds it reads
the main thread's stack and bills the elapsed wall time to the innermost
``repro.*`` frame (see :func:`stats.attribute`).  Both threads hold the
GIL only briefly and never run Python beside the main thread.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Iterator

from stats import DEEPCOPY, attribute

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    enabled = False

    def span(self, name: str, op: int | None = None):
        return _NULL

    def add(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, op]`` rows and
    written out once, at the end of the run.

    ``parent`` is the row index of the enclosing span (``-1`` at the top);
    ``op`` is the op id that every span of one op shares.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        row = [name, time.perf_counter(), 0.0, parent, op]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        """Accumulate a count measured at a span boundary."""
        self.counts[name] += value

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


class Sampler(threading.Thread):
    """Wall-clock stack sampler of one thread (the main thread)."""

    def __init__(self, interval: float = 0.005) -> None:
        super().__init__(name="perfbench-sampler", daemon=True)
        self.interval = interval
        self.target = threading.main_thread().ident
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples = 0
        self._halt = threading.Event()

    def run(self) -> None:
        last = time.perf_counter()
        while not self._halt.wait(self.interval):
            now = time.perf_counter()
            frame = sys._current_frames().get(self.target)
            frames = []
            while frame is not None:
                module = frame.f_globals.get("__name__", "")
                frames.append((module, frame.f_code.co_name))
                if module.startswith("repro."):
                    break
                frame = frame.f_back
            owner, under_deepcopy = attribute(frames)
            self.self_s[owner] += now - last
            if under_deepcopy:
                self.self_s[DEEPCOPY] += now - last
            self.samples += 1
            last = now

    def stop(self) -> None:
        self._halt.set()
        self.join()
