"""Spans recorded around calls into the program's public functions.

The program itself carries no tracing.  With tracing off, :meth:`Tracer.wrap`
returns the function unchanged, so the untraced run executes exactly the
calls a user makes.  With tracing on, every wrapped call records a span:
``(id, name, start, end, parent, op, raised)``, where ``parent`` is the span
that caused it (0 for none) and ``op`` the operation it belongs to.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
from time import perf_counter

_UNTRACED = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.gc_pauses: list[float] = []
        self._ids = itertools.count(1)
        self._current = 0
        self._op = None
        self._gc_started = 0.0
        self._timed_from = 0

    def wrap(self, name: str, function):
        """``function``, recording a span per call when tracing is on."""
        if not self.enabled:
            return function

        def traced(*args, **kwargs):
            span = next(self._ids)
            parent, self._current = self._current, span
            start = perf_counter()
            raised = True
            try:
                result = function(*args, **kwargs)
                raised = False
                return result
            finally:
                self.spans.append((span, name, start, perf_counter(), parent, self._op, raised))
                self._current = parent

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Wrap ``owner.attribute`` in place (for calls made inside the program)."""
        if self.enabled:
            setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def op(self, name: str, op_id):
        """The root span of one operation; spans recorded inside belong to it."""
        return self._op_span(name, op_id) if self.enabled else _UNTRACED

    @contextlib.contextmanager
    def _op_span(self, name: str, op_id):
        previous, self._op = self._op, op_id
        try:
            span = next(self._ids)
            parent, self._current = self._current, span
            start = perf_counter()
            raised = True
            try:
                yield
                raised = False
            finally:
                self.spans.append((span, name, start, perf_counter(), parent, op_id, raised))
                self._current = parent
        finally:
            self._op = previous

    def durations(self, name: str, raised: bool | None = None, setup: bool = False) -> list[float]:
        """Durations in seconds of the spans called ``name`` in the timed
        phase (and in set-up too, with ``setup``)."""
        return [
            end - start
            for _, span_name, start, end, _, _, span_raised in self.spans[0 if setup else self._timed_from :]
            if span_name == name and (raised is None or span_raised == raised)
        ]

    def start_timed_phase(self) -> None:
        """Count spans and garbage collections from here on as timed."""
        self._timed_from = len(self.spans)
        if self.enabled:
            gc.callbacks.append(self._on_gc)

    def end_timed_phase(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_pauses.append(perf_counter() - self._gc_started)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as out:
            for span, name, start, end, parent, op, raised in self.spans:
                out.write(json.dumps({
                    "id": span, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "raised": raised,
                }) + "\n")
