"""In-memory span recorder for the traced benchmark run.

Wrappers are installed at run time on the module attributes through which
one specluster layer calls the next (``selection.dkest_statistic``,
``clustering.kmeans``, ...).  Each call records a span: name, start, end,
parent span and thread.  Spans stay in memory and are turned into
per-layer metrics after the run; the package source is not modified.

A span's self time is its duration minus the part of its interval that
its direct children cover (children on several threads may overlap, so
the covered part is the union of their intervals).
"""

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None  # index into Tracer.spans
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _vm_hwm_mb():
    """Peak resident set size of this process so far (Linux VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


class Tracer:
    """Spans of one traced run.  Each thread keeps its own stack of open
    spans, so a span's parent is the innermost span open on its thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, memory=False):
        """Record one span around the body; yields the Span."""
        stack = self._stack()
        sp = Span(name=name, start=0.0, parent=stack[-1] if stack else None, thread=threading.get_ident())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(sp)
        stack.append(idx)
        if memory:
            hwm0 = _vm_hwm_mb()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if memory:
                sp.attrs["hwm_growth_mb"] = _vm_hwm_mb() - hwm0

    def count(self, key, amount=1):
        """Add to a counter of the innermost open span on this thread."""
        stack = self._stack()
        if stack:
            attrs = self.spans[stack[-1]].attrs
            attrs[key] = attrs.get(key, 0) + amount


def traced(tracer, fn, name, observe=None, memory=False):
    """Wrap fn so every call records a span; observe(span, result, args,
    kwargs) may attach attributes from the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, memory=memory) as sp:
            out = fn(*args, **kwargs)
        if observe is not None:
            observe(sp, out, args, kwargs)
        return out

    return wrapper


def counted(tracer, fn, key):
    """Wrap fn so every call adds 1 to counter key of the innermost open span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


class Installed:
    """Context manager that sets (owner, attribute) -> wrapper pairs and
    restores the original attributes on exit, in reverse order."""

    def __init__(self, replacements):
        self.replacements = list(replacements)
        self.originals = []

    def __enter__(self):
        for owner, attr, wrapper in self.replacements:
            self.originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        return False

    def restored(self):
        """True when every wrapped attribute is the original object again."""
        return all(owner.__dict__[attr] is original for owner, attr, original in self.originals)


# ---------------------------------------------------------------------------
# Span arithmetic


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans):
    """Direct children of every span, as lists of span indices."""
    kids = [[] for _ in spans]
    for idx, sp in enumerate(spans):
        if sp.parent is not None:
            kids[sp.parent].append(idx)
    return kids


def self_times(spans):
    """Duration of each span minus the union of its direct children's
    intervals, clipped to the span."""
    kids = children_of(spans)
    out = []
    for sp, ks in zip(spans, kids):
        covered = _union_length(
            (max(spans[k].start, sp.start), min(spans[k].end, sp.end))
            for k in ks
            if spans[k].end > sp.start and spans[k].start < sp.end
        )
        out.append(sp.duration - covered)
    return out


def worker_busy_frac(spans, name, workers):
    """Summed direct-child span time, across threads, over workers x wall of
    the spans called name (the fan-out span, e.g. the tau scan)."""
    kids = children_of(spans)
    busy = 0.0
    capacity = 0.0
    for sp, ks in zip(spans, kids):
        if sp.name == name:
            busy += sum(spans[k].duration for k in ks)
            capacity += workers * sp.duration
    return busy / capacity if capacity > 0 else 0.0
