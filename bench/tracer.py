"""Outside-in tracing: time calls into ``pfa`` by patching module attributes.

The tracer never edits the package. It replaces a function at the
namespace its caller looks it up in (for example ``pfa.refine.solve_pnp``,
which ``ransac_pnp`` resolves through ``pfa.refine``'s globals), records a
span per call and restores every original on exit. Spans are kept in
memory and written out by the caller once the run ends.

A span is ``(name, start, end, parent, unit)``: ``parent`` is the index of
the enclosing span or -1, and ``unit`` is the id of the unit of work
(trial or exemplar) that was open when the span started. All calls happen
on one thread, so sibling spans never overlap and a span's self time is
its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Patch:
    """One function to wrap.

    ``name`` is a span name, or a callable ``(args, kwargs) -> name`` for
    call sites that serve two layers. ``observe(tracer, name, args, kwargs,
    result)`` adds counters after a call returns; ``on_error(tracer, name,
    exc)`` after it raises (the exception always propagates).
    """

    owner: object
    attr: str
    name: object
    observe: object = None
    on_error: object = None


class Tracer:
    """Span and counter recorder that installs and removes patches."""

    def __init__(self, patches):
        self.patches = list(patches)
        self.spans = []  # [name, start, end, parent, unit]
        self.counters = defaultdict(float)
        self.unit = None
        self._stack = []
        self._originals = []

    # -- patch lifetime -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for patch in self.patches:
                original = vars(patch.owner)[patch.attr]
                self._originals.append((patch.owner, patch.attr, original))
                setattr(patch.owner, patch.attr, self._wrap(original, patch))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, patch: Patch):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = patch.name(args, kwargs) if callable(patch.name) else patch.name
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(index)
                if patch.on_error is not None:
                    patch.on_error(tracer, name, exc)
                raise
            tracer.close(index)
            if patch.observe is not None:
                patch.observe(tracer, name, args, kwargs, result)
            return result

        return traced

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name, self.unit] += amount

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list:
        """Seconds of each span not covered by its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, units) -> dict:
        """Per-name calls, inclusive and self seconds over the given units."""
        units = set(units)
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, unit = span
            if unit in units:
                entry = out[name]
                entry["calls"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += own
        return dict(out)

    def counter_total(self, name: str, units) -> float:
        units = set(units)
        return sum(v for (n, u), v in self.counters.items() if n == name and u in units)

    def dump(self) -> dict:
        """Spans and counters as plain JSON-ready data."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "unit": u}
                for n, s, e, p, u in self.spans
            ],
            "counters": [
                {"name": n, "unit": u, "value": v} for (n, u), v in self.counters.items()
            ],
        }
