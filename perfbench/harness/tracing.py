"""In-memory spans around the program's public calls.

A traced run installs wrappers (see :class:`Patcher`) around the
calls into each layer; every call becomes a :class:`Span` with its
name, start, end, parent span and, for service requests, the request
id. Spans stay in memory until the run ends and are written out once
(:meth:`Tracer.dump`). A layer's self time is its span minus the part
of that interval its child spans cover (:func:`self_times`).

The parent of a new span is the innermost open span of the current
thread or asyncio task (a context variable), so concurrent service
requests each nest under the phase span that issued them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts; nothing is written until :meth:`dump`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str, request: object = None, **attrs):
        """Open a span; yields its ``attrs`` dict for counts read at the
        boundary (e.g. ``ticks`` from a returned ``SimStats``)."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._current.get()
        token = self._current.set(span_id)
        start = self.clock()
        try:
            yield attrs
        finally:
            end = self.clock()
            self._current.reset(token)
            self.spans.append(
                Span(span_id, name, start, end, parent, request, attrs)
            )

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` wrapped in a span; ``on_result(attrs, args, result)``
        records counts from the call's arguments and return value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, result)
                return result

        return wrapper

    def dump(self, path) -> None:
        payload = [asdict(span) for span in self.spans]
        with open(path, "w") as handle:
            json.dump(payload, handle, default=str)


def maybe_span(tracer: Tracer | None, name: str, **kwargs):
    """``tracer.span(name)``, or a no-op context when not tracing."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **kwargs)


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus what children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(span.start, span.end, children.get(span.id, []))
        for span in spans
    }


class Patcher:
    """Attribute replacement with exact undo (restored in reverse)."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def everywhere(self, original: object, replacement: object,
                   prefix: str = "repro") -> int:
        """Rebind every module-level name under ``prefix`` that refers to
        ``original`` (``from x import f`` copies the binding, so patching
        the defining module alone would miss callers)."""
        count = 0
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != prefix and not name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
