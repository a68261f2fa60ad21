"""Outside-in span recorder for the benchmark's traced runs.

A layer is timed by replacing the callable at the attribute where the
package looks it up (``adadenoise.estimator.kde_binned`` is the name the
estimator imported, so that is the attribute to replace) with a wrapper
that records a span.  No source file of the package changes.  A hook whose
module or attribute no longer exists is reported as absent and its layer
reads 0, so renaming a callable never crashes a run.

Spans stay in memory (name, start, end, parent, call id, counts) and are
written out by the caller when the run ends.  A span's self time is its
duration minus the durations of its children; calls are sequential, so
the children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index into Tracer.spans; -1 for a root
    call_id: int    # spans of one workload call share it
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of one traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._calls = 0

    @property
    def active(self) -> bool:
        return bool(self._open)

    def run(self, name: str, fn, args=(), kwargs=None, measure=None,
            new_call: bool = False):
        """Call ``fn(*args, **kwargs)`` inside a span named `name`.

        `new_call` starts a new call id (a workload call); otherwise the
        span inherits its parent's.  `measure(args, kwargs, result)`
        returns counts stored on the span; it runs after the span closes.
        """
        kwargs = kwargs or {}
        parent = self._open[-1] if self._open else -1
        if new_call or parent < 0:
            call_id = self._calls
            self._calls += 1
        else:
            call_id = self.spans[parent].call_id
        span = Span(name, 0.0, 0.0, parent, call_id)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if measure is not None:
            span.counts = measure(args, kwargs, result)
        return result


@dataclass(frozen=True)
class Hook:
    """One callable to wrap: ``module`` plus a dotted ``attr`` path.

    `layer` is a span name, or a function of (args, kwargs) giving one.
    """

    module: str
    attr: str
    layer: str | Callable
    measure: Callable | None = None
    new_call: bool = False


def _resolve(hook: Hook):
    """Return (owner, attribute name) or None when the target is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


def _wrapper(tracer: Tracer, hook: Hook, fn):
    def traced(*args, **kwargs):
        if not tracer.active:  # only calls made inside a workload call count
            return fn(*args, **kwargs)
        layer = hook.layer(args, kwargs) if callable(hook.layer) else hook.layer
        return tracer.run(layer, fn, args, kwargs, hook.measure, hook.new_call)
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, hooks):
    """Wrap every resolvable hook; yield the list of absent ones.

    Originals are restored on exit.  An attribute the owner only
    inherited (or served lazily) is deleted again rather than set.
    """
    restore = []
    absent = []
    try:
        for hook in hooks:
            target = _resolve(hook)
            if target is None:
                absent.append(f"{hook.module}.{hook.attr}")
                continue
            owner, name = target
            restore.append((owner, name, vars(owner).get(name)))
            setattr(owner, name, _wrapper(tracer, hook, getattr(owner, name)))
        yield absent
    finally:
        for owner, name, original in reversed(restore):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed self time (s), span count and summed counts.

    A count named ``min_*`` is reduced by min instead of sum.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    totals: dict[str, dict] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.name, {"self_s": 0.0, "spans": 0})
        t["self_s"] += (s.end - s.start) - child[i]
        t["spans"] += 1
        for key, value in s.counts.items():
            if key.startswith("min_"):
                t[key] = min(t.get(key, value), value)
            else:
                t[key] = t.get(key, 0) + value
    return totals
