"""Span tracer that measures the program's layers from outside.

``install`` replaces module and class attributes the program already calls
with wrappers that open a span around each call; ``uninstall`` puts the
originals back.  Spans nest through a stack: when a span closes, its
duration minus the time covered by its child spans is added to its name's
self time, and the whole duration is charged to the parent.  Only the
aggregates are kept, because a repetition opens tens of thousands of
spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []      # [name, start, child seconds]
        self._saved: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.failures: dict[str, int] = defaultdict(int)
        self.pinv_bytes = 0

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def call(self, name: str, fn, *args, **kwargs):
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        # enter/exit inlined: the wrapped functions run tens of thousands
        # of times per repetition, so each saved call trims the overhead.
        stack, self_s, calls = self._stack, self.self_s, self.calls
        failures = self.failures

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception:
                failures[name] += 1
                raise
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
        return traced

    def _wrap_pinv(self, fn):
        traced = self._wrap("numerics.pinv", fn)

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            # Computed from the input's size, not measured memory traffic.
            self.pinv_bytes += getattr(a, "nbytes", 0)
            return traced(a, *args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap the layer entry points the program looks up at call time."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mod = importlib.import_module
        channel = mod("fdmimo.channel")
        closedform = mod("fdmimo.closedform")
        metrics = mod("fdmimo.metrics")
        numerics = mod("fdmimo.numerics")
        transceiver = mod("fdmimo.transceiver")
        targets = [
            (numerics.RngStream, "generator", "numerics.generator"),
            (metrics, "generate_iid", "channel.draw"),
            (channel.CorrelatedSampler, "sample", "channel.draw"),
            (metrics, "estimate", "estimation.estimate"),
            (metrics, "build", "transceiver.build"),
            (metrics, "sum_rate", "metrics.sum_rate"),
            # experiments calls metrics.monte_carlo_sweep through the module.
            (metrics, "monte_carlo_sweep", "metrics.sweep"),
            (closedform, "rate_perfect", "closedform"),
            (closedform, "ul_rate_imperfect", "closedform"),
        ]
        for owner, attr, name in targets:
            self._replace(owner, attr, self._wrap(name, getattr(owner, attr)))
        for attr in ("right_pseudo_inverse", "left_pseudo_inverse"):
            self._replace(transceiver, attr,
                          self._wrap_pinv(getattr(transceiver, attr)))

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
