"""In-memory span recorder that times calls into the simulator from outside.

The recorder wraps callables on the objects that own them (an instance
attribute shadowing the class method, or a class attribute for dunder
hooks such as ``__setattr__``), records one span per call, and restores
every wrapped attribute on :meth:`SpanRecorder.restore`.  Nothing inside
the simulator knows it is being traced: the runtime's own profiler hook
(``runtime._prof``) stays ``None``, so the vector engine keeps its bulk
hit path.

Spans live in parallel lists (name, start, end, parent, id) so the hot
wrapper does a handful of appends per call; they are written out once,
at the end, by :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter

_MISSING = object()


class SpanRecorder:
    """Record nested spans around wrapped calls.

    Args:
        clock: seconds-valued monotonic clock (injectable for tests).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ids: list[object] = []
        #: Identifier stamped on every span opened from now on (a pass id
        #: on replays, a request id on serving).
        self.current_id: object = None
        self._pending_from: int | None = None
        self._stack: list[int] = [-1]
        self._wrapped: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> int:
        """Open a span (child of the innermost open span); returns its index."""
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ids.append(self.current_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    def set_id(self, value: object) -> None:
        """Stamp ``value`` on later spans and on spans left pending by
        :meth:`defer_id` (they belong to the same request)."""
        self.current_id = value
        if self._pending_from is not None:
            ids = self.ids
            for j in range(self._pending_from, len(ids)):
                if ids[j] is None:
                    ids[j] = value
            self._pending_from = None

    def defer_id(self) -> None:
        """Spans opened from now on get the id of the next :meth:`set_id`."""
        self.current_id = None
        self._pending_from = len(self.names)

    # -- wrapping -------------------------------------------------------
    def substitute(self, obj: object, attr: str, value: object) -> None:
        """Set ``obj.attr = value`` until :meth:`restore`."""
        self._wrapped.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def wrap(self, obj: object, attr: str, name: str, enter=None, leave=None) -> bool:
        """Record a ``name`` span around every call of ``obj.attr``.

        ``enter(args)`` runs before the span opens and ``leave(args,
        result)`` after it closes (request bookkeeping on the serving
        path).  Missing attributes are skipped, so a renamed method costs
        coverage, not a crash; returns whether the site was wrapped.
        """
        fn = getattr(obj, attr, None)
        if fn is None:
            return False
        names, starts, ends = self.names, self.starts, self.ends
        parents, ids, stack, clock = self.parents, self.ids, self._stack, self.clock
        rec = self

        if enter is None and leave is None:

            def traced(*args, **kwargs):
                i = len(names)
                names.append(name)
                parents.append(stack[-1])
                ids.append(rec.current_id)
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()

        else:

            def traced(*args, **kwargs):
                if enter is not None:
                    enter(args)
                i = rec.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.close(i)
                if leave is not None:
                    leave(args, result)
                return result

        traced.__wrapped__ = fn
        self.substitute(obj, attr, traced)
        return True

    def restore(self) -> None:
        """Undo every :meth:`wrap` and :meth:`substitute`, newest first."""
        while self._wrapped:
            obj, attr, original = self._wrapped.pop()
            if original is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - child[i]
        return out

    def counts(self) -> Counter:
        return Counter(self.names)

    def attributed_s(self) -> float:
        """Seconds inside any root span (equals the sum of self times)."""
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )

    def dump(self, path) -> None:
        """Write every span as gzipped JSON: ``[name, start_s, end_s,
        parent_index, id]`` rows plus the name table."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        rows = [
            [index[n], s, e, p, i]
            for n, s, e, p, i in zip(
                self.names, self.starts, self.ends, self.parents, self.ids
            )
        ]
        text = json.dumps({"names": table, "spans": rows}, separators=(",", ":"))
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(text)
