"""In-memory span tracer that wraps the program's public functions.

The traced run installs wrappers at each layer boundary (a class method
or a module-level function, named by dotted path), so no file of the
program changes.  Every wrapped call is a span with a name, a start, an
end and the span that was open when it began (its parent).  Spans are
aggregated per boundary while the run goes — call count, total time,
self time, and call counts per parent edge — and written out once, when
the run ends.

A span's self time is its duration minus the time covered by the spans
nested directly inside it, so self times of all spans add up to the
time covered by the outermost spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Wrapper modes: a timed span, or a bare call count (for hooks called
#: so often, from inside other spans, that timing them would swamp the
#: parent's self time).
SPAN = "span"
COUNT = "count"
#: A timed span around every ``next()`` of the iterator a call returns.
ITER = "iter"

_ABSENT = object()


class Tracer:
    """Aggregates nested spans per name; ``clock`` is injectable so the
    self-time arithmetic can be tested on a synthetic trace."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[list] = []   # [name, start, child_time]
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[Optional[str], str], int] = defaultdict(int)
        #: Time covered by spans that had no parent.
        self.root_s = 0.0

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.edges[(parent[0], name)] += 1
        else:
            self.root_s += duration
            self.edges[(None, name)] += 1

    def count(self, name: str) -> None:
        self.calls[name] += 1

    def to_dict(self) -> dict:
        names = sorted(set(self.calls) | set(self.total_s))
        return {
            "spans": {name: {"calls": self.calls.get(name, 0),
                             "total_s": self.total_s.get(name, 0.0),
                             "self_s": self.self_s.get(name, 0.0)}
                      for name in names},
            "edges": [{"parent": parent, "name": name, "calls": calls}
                      for (parent, name), calls in sorted(
                          self.edges.items(),
                          key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "root_s": self.root_s,
        }


class _TimedIterator:
    """Wraps an iterator so each ``next()`` is a span."""

    def __init__(self, tracer: Tracer, name: str, inner: Iterator):
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            item = next(self._inner)
        finally:
            tracer.exit()
        tracer.count(self._name + ".items")
        return item


def _wrap(tracer: Tracer, fn: Callable, name: str, mode: str) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    if mode == COUNT:
        calls = tracer.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    if mode == ITER:
        def iterating(*args, **kwargs):
            return _TimedIterator(tracer, name, fn(*args, **kwargs))
        return iterating

    def spanned(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()
    return spanned


def _resolve(path: str):
    """``pkg.module:Owner.attr`` or ``pkg.module:attr`` -> (owner, attr),
    or None when the module, owner or attribute no longer exists."""
    module_name, _, qual = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = qual.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextmanager
def installed(tracer: Tracer, boundaries):
    """Wrap every ``(path, span_name, mode)`` boundary for the duration
    of the block, then restore the originals exactly.  Boundaries whose
    target is gone are skipped and listed in the yielded ``missing``
    list, so a later refactor that removes one degrades the ledger
    instead of breaking the run."""
    undo = []
    missing: List[str] = []
    try:
        for path, name, mode in boundaries:
            found = _resolve(path)
            if found is None:
                missing.append(path)
                continue
            owner, attr = found
            # Restore what the owner itself held; a method it inherited
            # is restored by deleting the wrapper.
            own = vars(owner).get(attr, _ABSENT)
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, original, name, mode))
            undo.append((owner, attr, own))
        yield missing
    finally:
        for owner, attr, own in reversed(undo):
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

