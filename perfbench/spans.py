"""In-memory spans around the benchmark's own calls into each layer.

The traced run wraps public functions of the program (``wrap_method``,
``wrap_function``) so every call records a span: name, start, end, parent
span and trace id.  Nothing inside ``src/`` is changed; the wrappers are
installed on the classes and modules for the duration of the traced run
and removed afterwards.  Spans stay in memory until the run writes them
out, and ``self_times`` derives each span's self time: its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("span_id", "parent_id", "trace_id", "name", "start", "end",
                 "attrs")

    def __init__(self, span_id, parent_id, trace_id, name, start):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.start = start
        self.end = start
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.span_id, "parent": self.parent_id,
                "trace": self.trace_id, "name": self.name,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class SpanRecorder:
    """Collects spans from any thread; a span's parent is the innermost
    open span of the same thread, and a span without one starts a trace."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    @property
    def enabled(self) -> bool:
        """Per thread: off, wrappers call straight through (the untraced
        half of an overhead pair) while other threads keep recording."""
        return not getattr(self._local, "off", False)

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._local.off = not value

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(span_id, parent.span_id if parent else None,
                    parent.trace_id if parent else span_id, name,
                    time.perf_counter())
        span.attrs.update(attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def _traced(self, fn, name, on_call=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            with recorder.span(name) as span:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(span, args, kwargs, result)
                return result
        return traced

    def wrap_method(self, owner: type, attr: str, name: str, on_call=None):
        """Record a span around every call of ``owner.attr``.

        ``on_call(span, args, kwargs, result)`` may attach attributes
        (counts taken where the work happens).  Class methods stay class
        methods; an inherited method is shadowed on ``owner`` and the
        shadow is deleted again by ``restore``.
        """
        had_own = attr in owner.__dict__
        raw = owner.__dict__[attr] if had_own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._traced(raw.__func__, name, on_call))
        else:
            wrapped = self._traced(raw, name, on_call)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw if had_own else None))

    def wrap_function(self, modules, attr: str, name: str, on_call=None):
        """Record a span around a module-level function, patching every
        module in ``modules`` that bound it by name at import time."""
        original = getattr(modules[0], attr)
        wrapped = self._traced(original, name, on_call)
        for module in modules:
            if getattr(module, attr) is original:
                setattr(module, attr, wrapped)
                self._undo.append((module, attr, original))

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> self seconds (duration minus the union of its
        children's intervals, clipped to the span)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = span.seconds - covered
        return result
