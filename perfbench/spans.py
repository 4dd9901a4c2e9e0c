"""In-memory spans recorded around the calls into each layer.

The benchmark records spans from its own files only: it replaces public
methods on the instances it builds or reads off the server with wrappers
(and wraps :class:`~repro.serving.codec.BinaryCodec` at class level, since
the front end creates its codecs internally).  Nothing under ``src/``
changes to obtain a trace.

A span is ``(layer, name, start, end, span_id, parent_id, request_id,
thread, extra)``.  The parent is the innermost open span of the same thread;
spans of one request share the request id of the span that opened it.  A
coalescer dispatch carries ``links``: the request ids of every request whose
rows it answered.  Spans stay in memory and are written out when the run
ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np


class Tracer:
    """Span recorder shared by every wrapper of one process.

    ``enabled`` can be flipped while the workload runs; a disabled wrapper
    costs one attribute test, so the traced run can interleave traced and
    untraced slices and measure what recording costs.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: "list[tuple]" = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._owners_lock = threading.Lock()
        #: Row bytes of every in-flight coalesced submission -> request id.
        self.row_owners: "dict[bytes, int]" = {}

    def current(self) -> "tuple | None":
        """The innermost open span of this thread: ``(span_id, request_id, name)``."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def wrap(self, layer: str, name: str, function, *, request_root: bool = False,
             before=None, annotate=None):
        """Return ``function`` wrapped in a span of ``layer``.

        ``request_root`` starts a new request id; otherwise the span inherits
        the enclosing span's.  ``before(args, kwargs)`` runs before the call
        and may return a cleanup callable; ``annotate(args, kwargs, result)``
        returns the span's ``extra`` dict.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            if request_root:
                request_id = span_id
            else:
                request_id = parent[1] if parent is not None else 0
            stack.append((span_id, request_id, name))
            cleanup = before(args, kwargs) if before is not None else None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if cleanup is not None:
                    cleanup()
            extra = annotate(args, kwargs, result) if annotate is not None else None
            tracer.spans.append(
                (
                    layer,
                    name,
                    start,
                    end,
                    span_id,
                    None if parent is None else parent[0],
                    request_id,
                    threading.get_ident(),
                    extra,
                )
            )
            return result

        return traced

    def instrument(self, target, layer: str, names, **options) -> None:
        """Replace each public method in ``names`` on ``target`` with a span wrapper."""
        for name in names:
            setattr(target, name, self.wrap(layer, f"{layer}.{name}", getattr(target, name), **options))

    # ------------------------------------------------------------------ #
    # Coalescer dispatch links
    # ------------------------------------------------------------------ #
    def register_rows(self, args, kwargs):
        """``before`` hook of a coalesced submission: publish its rows."""
        current = self.current()
        request_id = current[1] if current is not None else 0
        keys = [row.tobytes() for row in _rows(args[0])]
        with self._owners_lock:
            for key in keys:
                self.row_owners[key] = request_id

        def forget() -> None:
            with self._owners_lock:
                for key in keys:
                    if self.row_owners.get(key) == request_id:
                        del self.row_owners[key]

        return forget

    def dispatch_links(self, args, kwargs, result) -> dict:
        """``annotate`` hook of an engine batch call: rows, and owners if coalesced."""
        rows = _rows(args[0])
        extra = {"rows": len(rows)}
        current = self.current()
        if current is not None and current[2].startswith("serving.coalescer."):
            with self._owners_lock:
                owners = {self.row_owners.get(row.tobytes()) for row in rows}
            owners.discard(None)
            extra["links"] = sorted(owners)
        return extra


def _rows(points):
    matrix = np.asarray(points, dtype=np.float64)
    return matrix.reshape(1, -1) if matrix.ndim == 1 else matrix


def self_times(spans) -> "dict[int, float]":
    """Each span's duration minus the part its same-thread children cover."""
    child_time: "dict[int, float]" = {}
    for span in spans:
        parent = span[5]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (span[3] - span[2])
    return {span[4]: (span[3] - span[2]) - child_time.get(span[4], 0.0) for span in spans}
