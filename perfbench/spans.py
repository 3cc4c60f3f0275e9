"""In-memory span recorder for the traced benchmark run.

The recorder times calls into each layer's public entry points from the
outside: :meth:`SpanRecorder.attach` swaps each registered attribute
(``owner.attr``) for a wrapper that records one span per call, and
:meth:`SpanRecorder.detach` puts the originals back.  Nothing in the
program under test changes; untraced code paths run the original
functions.

A span is ``(name, start, end, parent, call)``: ``parent`` is the index
of the span that was open when it started (-1 for a root) and ``call``
is the identifier of the timed operation it belongs to, shared by every
span of that operation.  Spans stay in flat arrays in memory and are
written out once, by :meth:`SpanRecorder.save`.

A span's *self time* is its duration minus the durations of its direct
children.  Everything runs in one thread, so children of one span never
overlap and the self times of a root and all its descendants add up to
the root's duration exactly.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.call = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.call_id = -1
        self._targets: list[tuple[object, str, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- #
    def register(
        self, owner: object, attr: str, name: str, *, on_enter=None
    ) -> None:
        """Trace calls of ``owner.attr`` as spans named ``name``.

        ``on_enter``, if given, is called with the call's arguments just
        before the span opens, so a counter can be read at the same
        boundary.  ``attr`` must be defined on ``owner`` itself; if it is
        not, it is skipped, so the benchmark still runs (with that layer
        reading zero) against code that moved or renamed it.
        """
        if attr in vars(owner):
            self._targets.append((owner, attr, name, on_enter))

    @property
    def attached(self) -> bool:
        return bool(self._saved)

    def attach(self) -> None:
        if self._saved:
            return
        for owner, attr, name, on_enter in self._targets:
            own = vars(owner)[attr]
            if isinstance(own, classmethod):
                wrapped = classmethod(self._wrap(name, own.__func__, on_enter))
            else:
                wrapped = self._wrap(name, own, on_enter)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, wrapped)

    def detach(self) -> None:
        for owner, attr, own in reversed(self._saved):
            setattr(owner, attr, own)
        self._saved.clear()

    # ---------------------------------------------------------- #
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.call.append(self.call_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn, on_enter):
        nid = self._intern(name)
        start, end, stack, open_span = self.start, self.end, self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(*args, **kwargs)
            idx = open_span(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block (a no-op while detached)."""
        if not self._saved:
            yield
            return
        idx = self._open(self._intern(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    # ---------------------------------------------------------- #
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "call": np.array(self.call, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Per-span self time in seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][child], weights=dur[child], minlength=dur.size
        )
        return dur - covered

    def totals(self, calls: set[int] | None = None) -> dict[str, dict]:
        """Per span name: summed self time (s), summed duration (s), count.

        ``calls`` restricts the sums to spans of those call identifiers.
        """
        a = self.arrays()
        keep = np.ones(a["name"].size, dtype=bool)
        if calls is not None:
            keep = np.isin(a["call"], np.fromiter(calls, np.int64))
        own = self.self_times()[keep]
        dur = (a["end"] - a["start"])[keep]
        names = a["name"][keep]
        n = len(self.names)
        self_s = np.bincount(names, weights=own, minlength=n)
        dur_s = np.bincount(names, weights=dur, minlength=n)
        count = np.bincount(names, minlength=n)
        return {
            name: {
                "self_s": float(self_s[i]),
                "dur_s": float(dur_s[i]),
                "count": int(count[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())
