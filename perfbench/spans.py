"""Span tracing for the benchmark's traced run, from outside the program.

The program under test carries no benchmark hooks.  Instead,
:class:`Tracer` replaces chosen functions (class methods or module
functions) with wrappers that record one span per call: name, start,
end, parent span and op id.  Spans are held in memory in flat arrays
and written out once, when the run ends.  A layer's *self time* is the
sum over its spans of the span's duration minus the time covered by
its direct children.

Wrappers must be installed before the objects that use them are built:
several layers capture bound methods at construction time (a node's
receiver, a socket's reader callback), and those captures would keep
the unwrapped function.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: op id recorded for spans no request can be attributed to (token
#: visits, timers, membership traffic).
NO_OP = 0


def op_id_of(args) -> int:
    """The op id a call works on, from the first argument that carries an
    envelope header (``(conn_id, msg_seq_num)`` packed into one int), or
    from a frame wrapping such an envelope."""
    for arg in args:
        header = getattr(arg, "header", None)
        if header is None:
            payload = getattr(arg, "payload", None)
            header = getattr(payload, "header", None)
            if header is None:
                header = getattr(getattr(payload, "payload", None),
                                 "header", None)
        conn = getattr(header, "conn_id", None)
        if conn is not None:
            return conn * 1_000_000 + header.msg_seq_num
    return NO_OP


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.op_col = array("q")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        #: Free-form samples (e.g. admission queue waits), by name.
        self.samples: Dict[str, List[float]] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int, op: int) -> int:
        index = len(self.name_col)
        parent = self._stack[-1] if self._stack else -1
        if op == NO_OP and parent >= 0:
            op = self.op_col[parent]
        self.name_col.append(name_id)
        self.parent_col.append(parent)
        self.op_col.append(op)
        self.end_col.append(0.0)
        self._stack.append(index)
        self.start_col.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end_col[index] = time.perf_counter()
        self._stack.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def clear(self) -> None:
        """Drop every span, count and sample recorded so far.  Only valid
        while no span is open."""
        if self._stack:
            raise RuntimeError("cannot clear the tracer inside a span")
        for column in (self.name_col, self.start_col, self.end_col,
                       self.parent_col, self.op_col):
            del column[:]
        self.counts.clear()
        self.samples.clear()

    # -- patching ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``before(args)`` runs ahead of the call and ``after(args, result)``
        after it, both inside the span, for counters that need the
        arguments or the result.
        """
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name_id, op_id_of(args))
            try:
                if before is not None:
                    before(args)
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                tracer.close(index)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        setattr(owner, attr, counted)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back (last wrapped, first restored)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_col)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name (open spans are skipped)."""
        count = len(self.name_col)
        child = [0.0] * count
        durations = [0.0] * count
        for index in range(count):
            end = self.end_col[index]
            if end == 0.0:
                continue
            duration = end - self.start_col[index]
            durations[index] = duration
            parent = self.parent_col[index]
            if parent >= 0:
                child[parent] += duration
        totals: Dict[str, float] = {name: 0.0 for name in self.names}
        for index in range(count):
            if self.end_col[index] == 0.0:
                continue
            name = self.names[self.name_col[index]]
            totals[name] += durations[index] - child[index]
        return totals

    def span_counts(self) -> Dict[str, int]:
        counts = Counter(self.name_col)
        return {name: counts.get(index, 0)
                for index, name in enumerate(self.names)}

    def write(self, stem) -> None:
        """Write every span out: ``<stem>.json`` holds the name table and
        the column layout, ``<stem>.bin`` the five columns back to back
        in native byte order (name id, parent index and op id as
        integers; start and end in ``time.perf_counter`` seconds)."""
        columns = (("name", self.name_col), ("start", self.start_col),
                   ("end", self.end_col), ("parent", self.parent_col),
                   ("op", self.op_col))
        header = {
            "names": self.names,
            "spans": len(self.name_col),
            "columns": [{"name": name, "typecode": column.typecode,
                         "itemsize": column.itemsize}
                        for name, column in columns],
        }
        with open(f"{stem}.json", "w") as handle:
            json.dump(header, handle)
        with open(f"{stem}.bin", "wb") as handle:
            for _name, column in columns:
                column.tofile(handle)
