"""Spans around calls into the library, for the traced run.

A span is ``[name, start, end, parent, op]``: ``name`` is
``<module>.<function>``, ``parent`` the index of the enclosing span (-1
for none) and ``op`` the operation it belongs to.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


def direct(name, fn, *args, **kwargs):
    """The untraced call: no span, no bookkeeping."""
    return fn(*args, **kwargs)


class Tracer:
    """Records a span around each ``call``; ``op`` labels the spans that follow."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


# Calls one library module makes into another.  The benchmark cannot see
# them from outside, so the traced run wraps these module attributes for
# its duration: (calling module, attribute, span name).  An attribute the
# library no longer has (planned refactors replace some of these
# functions) is skipped.
BOUNDARY_CALLS = (
    ("affine_basis", "affine_a", "presentations.affine_a"),
    ("affine_basis", "complete", "rewriting.complete"),
    ("affine_basis", "interreduce", "rewriting.interreduce"),
    ("cli", "affine_a", "presentations.affine_a"),
    ("cli", "complete", "rewriting.complete"),
    ("cli", "interreduce", "rewriting.interreduce"),
    ("cli", "count_reduced", "series.count_reduced"),
    ("word_classes", "find_first_forbidden", "rewriting.find_first_forbidden"),
)


@contextmanager
def boundary_spans(lib, tracer):
    """Record a span for every call in BOUNDARY_CALLS while the block runs.

    Does nothing when ``tracer`` is None.
    """
    if tracer is None:
        yield
        return
    saved = []
    try:
        for module_name, attr, span in BOUNDARY_CALLS:
            module = getattr(lib, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, functools.partial(tracer.call, span, fn))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
