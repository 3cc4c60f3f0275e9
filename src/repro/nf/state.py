"""Vigor-style stateful data structures (Table 1 of the paper).

====== =====================================================
map    Stores integers indexed by arbitrary data.
vector Stores arbitrary data (records) indexed by integers.
dchain Time-aware integer allocator.
sketch Count-min sketch.
====== =====================================================

These are the *only* containers NF state may live in (paper §5,
limitation (i): "a clean separation between stateful and stateless
operations ... only allowing state to persist within a set of well-defined
data structures").  The Maestro analysis relies on this: per-structure
sharding rules are encoded once (§3.4) and every NF built on top of them
is analyzable.

All structures have a fixed ``capacity`` so the shared-nothing code
generator can divide it across cores (§4, *State sharding*).
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.errors import StateModelError

__all__ = ["Map", "Vector", "DChain", "Sketch", "expire_flows"]


class Map:
    """A bounded map from arbitrary hashable keys to integers.

    Mirrors Vigor's ``map``: ``put`` fails (returns ``False``) when the map
    is at capacity, matching the sequential semantics that the paper's
    state-sharding discussion (§4) builds on: a "full" shard behaves
    locally like the full sequential map behaves globally.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise StateModelError(f"map capacity must be positive: {capacity}")
        self.capacity = capacity
        self._data: dict[Hashable, int] = {}
        #: bumped on every successful mutation; the compiled dataplane's
        #: classification memo keys its validity on this.
        self.version = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> tuple[bool, int]:
        """Lookup ``key``; returns ``(found, value)`` with value 0 on miss."""
        if key in self._data:
            return True, self._data[key]
        return False, 0

    def put(self, key: Hashable, value: int) -> bool:
        """Insert or update; returns ``False`` when full (new key only)."""
        if key not in self._data and len(self._data) >= self.capacity:
            return False
        self._data[key] = int(value)
        self.version += 1
        return True

    def erase(self, key: Hashable) -> bool:
        """Remove ``key``; returns whether it was present."""
        present = self._data.pop(key, None) is not None
        if present:
            self.version += 1
        return present

    def keys(self) -> Iterator[Hashable]:
        return iter(list(self._data.keys()))

    def lookup_many(self, keys: Iterable[Hashable]) -> list[int | None]:
        """The value of each key, ``None`` on a miss (batched :meth:`get`)."""
        data = self._data
        return [data.get(k) for k in keys]


class Vector:
    """A fixed-size array of records indexed by small integers.

    Records are plain ``dict``s whose layout is declared by the owning NF
    (see :class:`repro.nf.api.StateDecl`); the declared layout is what lets
    the R5 analysis track value provenance through writes and reads.

    Only written rows are stored; an unwritten row reads as the initial
    template, so creating a large vector costs nothing per slot.
    """

    def __init__(self, capacity: int, initial: dict[str, int] | None = None):
        if capacity <= 0:
            raise StateModelError(f"vector capacity must be positive: {capacity}")
        self.capacity = capacity
        #: Pristine record layout; unwritten rows read as it, and
        #: :meth:`reset` restores a row to it.
        self._template: dict[str, int] = dict(initial or {})
        self._rows: dict[int, dict[str, int]] = {}
        #: bumped on every slot overwrite (compiled-memo validity guard).
        self.version = 0

    def __len__(self) -> int:
        return self.capacity

    def _check(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.capacity:
            raise StateModelError(
                f"vector index {index} out of range [0, {self.capacity})"
            )
        return index

    def borrow(self, index: int) -> dict[str, int]:
        """Read the record at ``index`` (a copy; write back with ``put``)."""
        return dict(self._rows.get(self._check(index), self._template))

    def put(self, index: int, record: dict[str, int]) -> None:
        """Overwrite the record at ``index``."""
        self._rows[self._check(index)] = dict(record)
        self.version += 1

    def reset(self, index: int) -> None:
        """Restore the record at ``index`` to the initial template.

        Used by live state migration: after a row's contents move to the
        receiving core's shard, the donor's slot goes back to its pristine
        state so a later (re)allocation of that index starts clean.
        """
        self._rows.pop(self._check(index), None)
        self.version += 1

    def rows(self, cells: Iterable[int]) -> list[dict[str, int]]:
        """The records at in-range ``cells``, uncopied: read, never mutate."""
        rows, template = self._rows, self._template
        return [rows.get(c, template) for c in cells]


class DChain:
    """Time-aware integer allocator (Vigor's ``dchain``).

    Allocates indices in ``[0, capacity)``; each allocated index carries a
    last-touched timestamp that :meth:`rejuvenate` refreshes and
    :meth:`expire` consults to free stale indices.  This is the structure
    whose aging data the lock-based code generator replicates per core
    (§4, *Lock-based rejuvenation*).

    Indices are handed out lowest-first and freed ones are reused
    last-in-first-out.  Only indices below the high-water mark (the
    number ever handed out) have been allocated, so the per-index flag
    and timestamp arrays grow with it instead of being sized to
    ``capacity`` up front.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise StateModelError(f"dchain capacity must be positive: {capacity}")
        self.capacity = capacity
        self._allocated = bytearray()
        self._touched = array("d")
        #: Freed indices below the high-water mark ``len(self._allocated)``.
        self._free: list[int] = []
        #: bumped when the allocated set changes (not on rejuvenation);
        #: the compiled-memo validity guard for flag/frozen-alloc reads.
        self.alloc_version = 0

    def allocated_count(self) -> int:
        return len(self._allocated) - len(self._free)

    def allocate(self, now: float) -> tuple[bool, int]:
        """Allocate a fresh index; ``(False, 0)`` when exhausted."""
        if self._free:
            index = self._free.pop()
            self._allocated[index] = 1
            self._touched[index] = now
        elif len(self._allocated) < self.capacity:
            index = len(self._allocated)
            self._allocated.append(1)
            self._touched.append(now)
        else:
            return False, 0
        self.alloc_version += 1
        return True, index

    def is_allocated(self, index: int) -> bool:
        return 0 <= index < len(self._allocated) and self._allocated[index] == 1

    def rejuvenate(self, index: int, now: float) -> bool:
        """Refresh the timestamp of an allocated index."""
        if not self.is_allocated(index):
            return False
        self._touched[index] = now
        return True

    def last_touched(self, index: int) -> float:
        if not 0 <= index < self.capacity:
            raise IndexError(f"dchain index {index} out of range")
        return self._touched[index] if index < len(self._touched) else 0.0

    def free_index(self, index: int) -> bool:
        if not self.is_allocated(index):
            return False
        self._allocated[index] = 0
        self._free.append(index)
        self.alloc_version += 1
        return True

    def expire(self, threshold: float) -> list[int]:
        """Free every index last touched strictly before ``threshold``.

        Returns the freed indices in ascending order.
        """
        allocated, touched = self._allocated, self._touched
        expired = [
            i
            for i in range(len(allocated))
            if allocated[i] and touched[i] < threshold
        ]
        for index in expired:
            self.free_index(index)
        return expired

    def allocated_mask(self, cells: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_allocated` over an int array of cells."""
        cells = np.asarray(cells, dtype=np.int64)
        flags = np.frombuffer(self._allocated, dtype=np.uint8)
        known = (cells >= 0) & (cells < flags.size)
        mask = np.zeros(cells.shape, dtype=bool)
        mask[known] = flags[cells[known]] == 1
        return mask

    def touch_many(self, cells: Iterable[int], times: Iterable[float]) -> None:
        """Store last-touched times for allocated ``cells`` in bulk.

        The compiled dataplane's deferred rejuvenation: the caller has
        already checked every cell is allocated.
        """
        touched = self._touched
        for c, t in zip(cells, times):
            touched[c] = t


class Sketch:
    """Count-min sketch [Cormode & Muthukrishnan] (paper §6.1, CL).

    ``depth`` independent hash rows (the paper's Connection Limiter uses 5)
    of ``width`` counters each.  Memory-efficient approximate counting:
    ``fetch`` returns the minimum across rows, an upper bound on the true
    count.
    """

    def __init__(self, capacity: int, depth: int = 5):
        if capacity <= 0 or depth <= 0:
            raise StateModelError("sketch capacity and depth must be positive")
        self.capacity = capacity
        self.depth = depth
        self.width = max(4, capacity // depth)
        self._rows: list[list[int]] = [[0] * self.width for _ in range(depth)]

    def _buckets(self, key: Hashable) -> list[int]:
        material = repr(key).encode()
        out = []
        for row in range(self.depth):
            digest = hashlib.blake2b(
                material, digest_size=8, salt=row.to_bytes(4, "little") + b"\0" * 12
            ).digest()
            out.append(int.from_bytes(digest, "little") % self.width)
        return out

    def touch(self, key: Hashable, amount: int = 1) -> None:
        """Increment every row's counter for ``key``."""
        for row, bucket in enumerate(self._buckets(key)):
            self._rows[row][bucket] += amount

    def fetch(self, key: Hashable) -> int:
        """Estimated count for ``key`` (min across rows; never undercounts)."""
        return min(
            self._rows[row][bucket] for row, bucket in enumerate(self._buckets(key))
        )

    def reset(self) -> None:
        """Clear all counters (time-window rotation)."""
        for row in self._rows:
            for i in range(len(row)):
                row[i] = 0


def expire_flows(
    flow_map: Map,
    chain: DChain,
    vector: Vector,
    index_to_key: dict[int, Hashable],
    threshold: float,
) -> int:
    """Expire stale flows across the map+dchain+vector triad.

    This is the Vigor ``expire_items_single_map`` idiom: the dchain decides
    *which* indices are stale, and the paired map entries are erased so the
    sequential NF semantics (drop state for idle flows) hold.  Returns the
    number of expired flows.
    """
    expired = chain.expire(threshold)
    for index in expired:
        key = index_to_key.pop(index, None)
        if key is not None:
            flow_map.erase(key)
    return len(expired)
