"""In-memory span tracer that times calls into the program's layers from outside.

A layer boundary is a module attribute, class attribute or registry entry
that :meth:`Tracer.wrap` replaces with a timing wrapper; :meth:`Tracer.restore`
puts every original back.  No program source is edited.  A span records its
name, start, end, parent span and the tracer's run id; its self time is its
duration minus the time its direct children cover.  :meth:`Tracer.count`
times a hot function without a span per call (``eai_quality`` runs ~28k
times per round), keeping only a call count and a time total.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Spans and counters of one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self._stack: list[Span] = []
        self._originals: list[tuple] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent=parent, run=self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.dur

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``on_return(span, args, result)`` may attach attributes to the span.
        """
        fn = _get(owner, attr)
        tracer = self

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_return is not None:
                on_return(span, args, out)
            return out

        self._install(owner, attr, fn, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and sum their time, without spans."""
        fn = _get(owner, attr)
        tally = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn, updated=())
        def counted(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[1] += time.perf_counter() - t
                tally[0] += 1

        self._install(owner, attr, fn, counted)

    def _install(self, owner, attr, original, wrapper) -> None:
        self._originals.append((owner, attr, original))
        _set(owner, attr, wrapper)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            _set(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def overhead_s(self) -> float:
        """Measured wrapper cost times the number of wrapped calls made."""
        span_cost, count_cost = _wrapper_costs()
        calls = sum(c[0] for c in self.counters.values())
        return span_cost * len(self.spans) + count_cost * calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "run": self.run_id,
            "spans": [asdict(s) for s in self.spans],
            "counters": {k: {"calls": c[0], "s": c[1]} for k, c in self.counters.items()},
        }
        path.write_text(json.dumps(doc))


def _wrapper_costs(n: int = 20000) -> tuple[float, float]:
    """Per-call cost of a span wrapper and of a counting wrapper, in seconds."""
    ns = SimpleNamespace(f=lambda: None)

    def per_call() -> float:
        f = ns.f
        t = time.perf_counter()
        for _ in range(n):
            f()
        return (time.perf_counter() - t) / n

    bare = per_call()
    probe = Tracer("calibration")
    probe.wrap(ns, "f", "probe")
    span_cost = per_call() - bare
    probe.restore()
    probe.count(ns, "f", "probe")
    count_cost = per_call() - bare
    probe.restore()
    return max(span_cost, 0.0), max(count_cost, 0.0)
