"""In-memory span tracing installed from outside the program.

The traced run never edits the code under test: it substitutes wrapped
versions of the layer functions (module globals, class attributes or
one object's bound methods) for the duration of the traced phase and
restores the originals afterwards.  Every wrapped call records one span
``(id, name, start, end, parent, tag)``: ``parent`` is the enclosing
span in the same task (tracked through a context variable, so it stays
right across ``await``), ``tag`` the operation or shard the span served.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: the innermost open span of the running task
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: the operation or shard being served, set by the benchmark's drivers
TAG: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_tag", default=None
)


class Tracer:
    """Span recorder plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------

    def _open(self):
        span_id = next(self._ids)
        parent = _CURRENT.get()
        return span_id, parent, _CURRENT.set(span_id)

    def _close(self, span_id, parent, token, name, start) -> None:
        end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append((span_id, name, start, end, parent, TAG.get()))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        span_id, parent, token = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, token, name, start)

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None):
        """``fn`` recording a span per call; ``observe(result, args)``
        runs after the span closes, so counting costs no layer time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, token = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, token, name, start)
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable, observe=None, gauge=None):
        """Coroutine-function counterpart of :meth:`wrap`.  The span's
        wall time includes other tasks' turns on the loop; ``gauge``
        names a counter tracking how many calls are in flight, whose
        maximum lands in ``counts[gauge + '.max']``."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span_id, parent, token = self._open()
            start = time.perf_counter()
            if gauge is not None:
                self.counts[gauge] += 1
                peak = gauge + ".max"
                self.counts[peak] = max(self.counts[peak], self.counts[gauge])
            try:
                result = await fn(*args, **kwargs)
            finally:
                if gauge is not None:
                    self.counts[gauge] -= 1
                self._close(span_id, parent, token, name, start)
            if observe is not None:
                observe(result, args)
            return result

        return traced

    # -- substitution --------------------------------------------------

    def patch(self, owner, attr: str, name: str, observe=None, *,
              is_async: bool = False, gauge: Optional[str] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until
        :meth:`restore`.  ``owner`` is a module, a class or an object."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        saved = vars(owner)[attr] if own else None
        wrapped = (
            self.wrap_async(name, original, observe, gauge)
            if is_async
            else self.wrap(name, original, observe)
        )
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, own, saved))

    def restore(self) -> None:
        while self._patches:
            owner, attr, own, saved = self._patches.pop()
            if own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    # -- reading -------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Seconds spent in each span called ``name``, in record order."""
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def busy(self, *names: str) -> float:
        wanted = set(names)
        return sum(end - start for _, n, start, end, _, _ in self.spans
                   if n in wanted)

    def self_times(self, name: str, child: str) -> List[float]:
        """Per ``name`` span: its duration minus its ``child`` spans."""
        covered: Dict[int, float] = {}
        for _, n, start, end, parent, _ in self.spans:
            if n == child and parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return [end - start - covered.get(span_id, 0.0)
                for span_id, n, start, end, _, _ in self.spans if n == name]

    def write(self, path: str, header: Dict[str, object]) -> None:
        """One JSON line of run metadata, then one line per span."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, tag in self.spans:
                stream.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "tag": tag,
                }) + "\n")
