"""Spans, counters and the per-layer ledger, recorded from outside the program.

The benchmark never edits the program: :class:`Tracer` swaps the program's
public entry points (module functions and class methods) for thin wrappers
that record one span per call, and puts the originals back afterwards.  An
entry point that no longer exists is recorded as absent instead of failing
the run, so a later change that removes one keeps the benchmark working.

The pure helpers at the bottom (:func:`self_times`, :func:`uncovered`,
:func:`tail_quantile`, :func:`summarize`, :func:`due_latencies`) are the
benchmark's own arithmetic; ``test_arith.py`` checks them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name: str, start: float, parent: int, tag: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag


class Tracer:
    """In-memory spans and counters; single-threaded (the stack is the
    causal parent chain)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self.tag: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, now(), self._stack[-1] if self._stack else -1, self.tag)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = now()
            self._stack.pop()

    @contextmanager
    def tagged(self, tag: str) -> Iterator[None]:
        """Label every span opened inside (for the per-benchmark ledger)."""
        previous, self.tag = self.tag, tag
        try:
            yield
        finally:
            self.tag = previous

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- instrumenting entry points ------------------------------------
    def wrap(
        self,
        target: str,
        name: str,
        after: Optional[Callable[["Tracer", Any, tuple], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``target``.

        ``target`` is ``"module:function"`` or ``"module:Class.method"``.
        A module-level function is replaced in every ``repro`` module that
        bound it by name (``from x import f``), so callers see the wrapper.
        ``after(tracer, result, args)`` runs inside the span on return.
        """
        module_name, _, qual = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            owner: Any = module
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = original(*args, **kwargs)
                if after is not None:
                    after(tracer, result, args)
                return result

        if owner is module:
            for loaded_name, loaded in list(sys.modules.items()):
                if (
                    loaded_name.split(".")[0] == "repro"
                    and getattr(loaded, parts[-1], None) is original
                ):
                    self._patch(loaded, parts[-1], wrapper)
        else:
            self._patch(owner, parts[-1], wrapper)

    def wrap_overrides(self, base: type, method: str, name: str, classes: Iterable[type]) -> None:
        """Wrap ``method`` on every class in ``classes`` that defines it
        (an abstract entry point implemented per subclass)."""
        found = False
        for cls in classes:
            if method in vars(cls) and issubclass(cls, base):
                found = True
                self.wrap(f"{cls.__module__}:{cls.__qualname__}.{method}", name)
        if not found:
            self.absent.append(f"{base.__module__}:{base.__qualname__}.{method}")

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- the ledger ----------------------------------------------------
    def ledger(self) -> Dict[Tuple[str, Optional[str]], Dict[str, float]]:
        """``(span name, tag) -> {calls, total_s, self_s}``."""
        triples = [(s.start, s.end, s.parent) for s in self.spans]
        selfs = self_times(triples)
        rows: Dict[Tuple[str, Optional[str]], Dict[str, float]] = {}
        for span, own in zip(self.spans, selfs):
            row = rows.setdefault((span.name, span.tag), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += own
        return rows

    def self_ms(self, prefix: str) -> float:
        """Summed self time, in ms, of every span whose name starts with
        ``prefix``."""
        return 1e3 * sum(
            row["self_s"] for (name, _tag), row in self.ledger().items() if name.startswith(prefix)
        )

    def roots(self) -> List[Tuple[float, float]]:
        return [(s.start, s.end) for s in self.spans if s.parent < 0]

    # -- across processes ----------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """The spans as plain data (``perf_counter`` times, which every
        process on one Linux machine shares)."""
        return {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "absent": list(self.absent),
        }

    @classmethod
    def load(cls, data: Dict[str, Any], window: Tuple[float, float]) -> "Tracer":
        """A tracer holding the spans of :meth:`dump` that lie inside
        ``window``; a span whose parent lies outside becomes a root."""
        tracer = cls()
        tracer.absent = list(data.get("absent", ()))
        kept: Dict[int, int] = {}
        for index, (name, start, end, parent) in enumerate(data.get("spans", ())):
            if start >= window[0] and end <= window[1]:
                kept[index] = len(tracer.spans)
                span = Span(name, start, kept.get(parent, -1), None)
                span.end = end
                tracer.spans.append(span)
        return tracer


_MISSING = object()


# ----------------------------------------------------------------------
# the benchmark's own arithmetic
# ----------------------------------------------------------------------
def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Tuple[float, float, int]]) -> List[float]:
    """Self time of each ``(start, end, parent index)`` span: its duration
    minus the part of its interval that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (start, end, _parent) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(index, ()) if e > start and s < end
        ]
        result.append((end - start) - _union_length(clipped))
    return result


def uncovered(window: Tuple[float, float], intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``window`` that none of ``intervals`` covers (the ledger's
    ``unattributed`` row)."""
    start, end = window
    clipped = [(max(s, start), min(e, end)) for s, e in intervals if e > start and s < end]
    return (end - start) - _union_length(clipped)


#: percentiles the reports choose from, highest last
QUANTILES = (0.5, 0.9, 0.99, 0.999, 0.9999)

#: samples that must lie beyond a reported percentile
TAIL_SAMPLES = 10


def tail_quantile(count: int) -> Optional[float]:
    """The highest percentile in :data:`QUANTILES` with at least
    :data:`TAIL_SAMPLES` of ``count`` samples beyond it (``None`` when even
    the median has fewer)."""
    best = None
    for q in QUANTILES:
        if round(count * (1.0 - q), 9) >= TAIL_SAMPLES:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (NumPy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, the highest percentile :func:`tail_quantile` allows, and the
    sample count."""
    q = tail_quantile(len(values))
    return {
        "n": len(values),
        "median": statistics.median(values) if values else None,
        "tail_q": q,
        "tail": percentile(values, q) if q is not None else None,
    }


def due_latencies(
    due: Sequence[float], sent: Sequence[float], replied: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Open-loop timing: each request's latency counts from when it was
    *due*, so a stalled generator's delay is charged to the system; the
    second list is how late the generator sent each request."""
    latency = [r - d for d, r in zip(due, replied)]
    late = [max(0.0, s - d) for d, s in zip(due, sent)]
    return latency, late

