"""One call's packets as columns, and integer flow keys built from them.

A trace is a ``list[tuple[int, Packet]]``.  Steering, classification and
expiry planning all need numeric columns of it; :class:`PacketBatch`
extracts each column at most once per call and hands the same array to
every layer.

Flows are keyed by packing header-field columns into ``uint64`` words
(:func:`pack_words`) and deduplicating the word rows
(:func:`unique_words`): the per-flow work after that is one C-level
dict probe per unique flow, never a per-packet or per-row Python loop.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = ["PacketBatch", "pack_words", "unique_words"]


class PacketBatch:
    """An immutable snapshot of one trace, with lazily extracted columns.

    ``items`` is ``tuple(trace)``: a list mutated in place after the
    call cannot change what the batch holds, and :meth:`matches` tells a
    replay of the same, unchanged list apart from a new or edited one.
    """

    __slots__ = ("trace", "items", "n", "_packets", "_ports", "_ts", "_cols")

    def __init__(self, trace: Sequence[tuple[int, object]]) -> None:
        self.trace = trace
        self.items = tuple(trace)
        self.n = len(self.items)
        self._packets: list | None = None
        self._ports: np.ndarray | None = None
        self._ts: np.ndarray | None = None
        self._cols: dict[str, np.ndarray] = {}

    def matches(self, trace) -> bool:
        """True iff ``trace`` is this batch's list, item for item unchanged."""
        items = self.items
        return (
            trace is self.trace
            and len(trace) == len(items)
            and all(map(operator.is_, trace, items))
        )

    @property
    def packets(self) -> list:
        if self._packets is None:
            self._packets = list(map(operator.itemgetter(1), self.items))
        return self._packets

    @property
    def ports(self) -> np.ndarray:
        """Ingress port of every packet (int64)."""
        if self._ports is None:
            self._ports = np.fromiter(
                map(operator.itemgetter(0), self.items), np.int64,
                count=self.n,
            )
        return self._ports

    @property
    def timestamps(self) -> np.ndarray:
        if self._ts is None:
            self._ts = np.fromiter(
                map(operator.attrgetter("timestamp"), self.packets),
                np.float64, count=self.n,
            )
        return self._ts

    def column(self, name: str) -> np.ndarray:
        """Header field ``name`` of every packet (int64)."""
        col = self._cols.get(name)
        if col is None:
            col = np.fromiter(
                map(operator.attrgetter(name), self.packets), np.int64,
                count=self.n,
            )
            self._cols[name] = col
        return col


def pack_words(
    columns: Sequence[np.ndarray], widths: Sequence[int]
) -> list[np.ndarray]:
    """Pack integer columns into as few ``uint64`` words as they fit.

    Column *i* takes ``widths[i]`` bits; fields never straddle a word,
    and the first column lands in the most significant bits of the first
    word.  Every value must be non-negative and below ``2**widths[i]``
    (a width of 64 takes any int64, reinterpreted as unsigned), so equal
    word rows mean equal column rows.
    """
    words: list[np.ndarray] = []
    used = 64
    for col, width in zip(columns, widths):
        value = col.astype(np.uint64)
        if used + width > 64:
            words.append(value)
            used = width
        else:
            words[-1] = (words[-1] << np.uint64(width)) | value
            used += width
    return words


def unique_words(
    words: Sequence[np.ndarray],
) -> tuple[list, np.ndarray, np.ndarray]:
    """Deduplicate rows of packed words.

    Returns ``(keys, rep, inverse)``: ``keys[u]`` is the *u*-th unique
    row as one Python int (the words concatenated, first word most
    significant), ``rep[u]`` the index of one row equal to it, and
    ``inverse`` maps every row to its ``u``.

    Rows are ranked one word at a time with integer ``np.unique``: the
    rank so far is combined with the next word by a shift when both fit
    in 63 bits, else with that word's own rank (ranks stay below the row
    count, so their product fits too).
    """
    uniq, inverse = np.unique(words[0], return_inverse=True)
    for word in words[1:]:
        bits = int(word.max()).bit_length() if word.size else 0
        if bits + int(uniq.size).bit_length() <= 63:
            combined = (inverse.astype(np.uint64) << np.uint64(bits)) | word
        else:
            word_uniq, word_rank = np.unique(word, return_inverse=True)
            combined = inverse * word_uniq.size + word_rank
        uniq, inverse = np.unique(combined, return_inverse=True)
    rep = np.empty(uniq.size, dtype=np.int64)
    rep[inverse] = np.arange(inverse.size)
    if len(words) == 1:
        return uniq.tolist(), rep, inverse
    # One int per key, not a tuple of words: it is what the long-lived
    # flow tables hold, and an int is less than half a tuple's memory.
    keys = words[0][rep].tolist()
    for word in words[1:]:
        keys = list(map(
            operator.or_, map(operator.lshift, keys, repeat(64)),
            word[rep].tolist(),
        ))
    return keys, rep, inverse
