"""In-memory spans around the program's layer boundaries.

The tracer wraps a public function by rebinding its name in the module
that calls it, so the program itself is not edited.  Every call of a
wrapped function appends one span (name, start, end, parent, item); the
spans stay in memory until the pass ends.  A span's self time is its
duration minus the time its child spans cover.
"""

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: object


class Tracer:
    """Collects spans and per-call observations for one traced pass."""

    def __init__(self):
        self.spans = []
        self.observations = {}
        self.item = None
        self._stack = []
        self._restore = []

    def wrap(self, module, attribute, name, observe=None, before=None,
             span=True):
        """Rebind module.attribute to a recording wrapper.

        before(args), when given, runs ahead of each call (it may set
        the current item).  observe(args, result) runs after each call
        and its return value is appended to observations[name].  With
        span=False the call is observed but no span is recorded, so its
        time stays in the caller's self time.

        Returns False, and wraps nothing, when the module no longer has
        the attribute.
        """
        original = getattr(module, attribute, None)
        if original is None:
            return False

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if not span:
                result = original(*args, **kwargs)
            else:
                with self.span(name):
                    result = original(*args, **kwargs)
            if observe is not None:
                self.observations.setdefault(name, []).append(
                    observe(args, result))
            return result

        setattr(module, attribute, wrapper)
        self._restore.append((module, attribute, original))
        return True

    def span(self, name):
        return _SpanContext(self, name)

    def unwrap(self):
        """Restore every rebound name, last wrapped first."""
        while self._restore:
            module, attribute, original = self._restore.pop()
            setattr(module, attribute, original)


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append(Span(self.name, 0.0, 0.0, parent, tracer.item))
        tracer._stack.append(self.index)
        tracer.spans[self.index].start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index].end = time.perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans):
    """Per-span self time: duration minus the union of its children.

    Children of one parent run one after another in a single thread, so
    their intervals are disjoint and the union is their summed duration.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [span.end - span.start - child_time[k]
            for k, span in enumerate(spans)]


def summarize(spans):
    """{name: (calls, total seconds, total self seconds)}."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total, self_total = table.get(span.name, (0, 0.0, 0.0))
        table[span.name] = (calls + 1, total + span.end - span.start,
                            self_total + own)
    return table


def to_json(spans):
    return [{"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "item": s.item} for s in spans]
