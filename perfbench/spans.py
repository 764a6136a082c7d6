"""Span recording around calls into covsketch, kept in memory.

A span has a name, a start, an end, a parent span and an operation id.
Spans are opened by wrappers that the benchmark installs around the public
functions of each covsketch module for the length of one traced operation;
nothing inside the package is changed. Counts are recorded at the same
boundaries, from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent      # index of the parent span, or None
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, counts and noted values per operation id (`op`).

    With record=False only counts and notes are kept, which costs a
    counter update per wrapped call instead of two clock reads.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.spans: list[Span] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.notes: dict[tuple, list] = defaultdict(list)
        self.op = 0
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        if not self.record:
            return -1
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index].end = time.perf_counter()
        # A span driven by a generator can close while a later span is open.
        if self._open and self._open[-1] == index:
            self._open.pop()
        else:
            self._open.remove(index)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[(self.op, key)] += amount

    def note(self, key: str, value) -> None:
        self.notes[(self.op, key)].append(value)

    def op_counts(self, op: int) -> dict[str, float]:
        return {key: value for (o, key), value in self.counts.items() if o == op}

    def op_notes(self, op: int) -> dict[str, list]:
        return {key: value for (o, key), value in self.notes.items() if o == op}

    def truncate(self, length: int) -> None:
        """Forget the spans recorded after the first `length` (all closed)."""
        del self.spans[length:]

    def wrap(self, fn, name, note=None):
        """`fn` with a span around each call.

        `name` is a string or a function of (args, kwargs) giving one;
        `note(tracer, args, kwargs, result)` records counts after the call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = tracer.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if note is not None:
                note(tracer, args, kwargs, result)
            return result

        return traced

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op} for s in self.spans]


def self_times(spans: list[Span], base: int = 0) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    `spans` is a slice starting at absolute index `base` (parents are
    absolute indices; a parent before the slice is ignored). Children may
    overlap one another, as a generator-driven span can stay open while a
    sibling runs; the covered part is the union of their intervals, clipped
    to the parent.
    """
    children = defaultdict(list)
    for index, sp in enumerate(spans):
        if sp.parent is not None and sp.parent >= base:
            children[sp.parent - base].append(index)
    out = []
    for index, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for child in sorted(children[index], key=lambda c: spans[c].start):
            lo = max(spans[child].start, reach)
            hi = min(spans[child].end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.duration - covered)
    return out


def totals_by_name(spans: list[Span], base: int, op: int) -> dict[str, dict]:
    """Per span name within one operation: calls, wall seconds, self seconds."""
    selfs = self_times(spans, base)
    table: dict[str, dict] = {}
    for sp, own in zip(spans, selfs):
        if sp.op != op:
            continue
        row = table.setdefault(sp.name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["wall_s"] += sp.duration
        row["self_s"] += own
    return table


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace attributes: targets are (owner, attr, make_wrapper).

    `make_wrapper(original)` returns the replacement. The owner's own
    attribute (a module global or a class dict entry, classmethods included)
    is restored on exit, so call sites that look the name up at call time
    see the wrapper only inside the block.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
