"""Functional multicore simulation: real packets, real RSS, real state.

Where :mod:`repro.sim.perf` predicts *rates*, this module executes the
generated parallel NF packet-by-packet: every packet is hashed by the
actual Toeplitz keys, steered through the actual indirection table, and
processed against the core's actual state shard.  It is the substrate for
semantic-equivalence checking and for measuring per-core load under skew.

Two execution paths produce bit-identical results:

* the **fast path** (default) steers the whole trace at once — vectorized
  field extraction, batched Toeplitz hashing of the *unique* flows only
  (a per-flow dispatch cache skips re-hashing repeated flows), batched
  indirection lookups — then runs the per-packet NF code grouped by core
  where state shards are independent;
* the **reference path** (``fastpath=False``) is the original
  packet-at-a-time loop through :meth:`ParallelNF.process`, kept as the
  oracle the fast path is benchmarked and property-tested against
  (``benchmarks/bench_fastpath.py``, ``tests/sim/test_fastpath.py``).
"""

from __future__ import annotations

import gc
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat, starmap
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.codegen import ParallelNF, Strategy
from repro.nf.api import ActionKind
from repro.nf.runtime import PacketResult
from repro.rs3.toeplitz import hash_input_rows
from repro.sim.batch import PacketBatch, pack_words, unique_words
from repro.sim.compiled import compile_parallel
from repro.traffic.generator import Trace

__all__ = [
    "FlowSteeringCache",
    "FunctionalRun",
    "run_functional",
    "ChainRun",
    "run_chain",
]

#: Stable small-int code per action, backing FunctionalRun's action array.
ACTION_CODES: dict[ActionKind, int] = {
    kind: code for code, kind in enumerate(ActionKind)
}
_KIND_FOR_CODE: tuple[ActionKind, ...] = tuple(ActionKind)

#: Ops that touch state without being a "hard" write (see write_fraction).
_SOFT_WRITE_OPS = frozenset({"dchain_rejuvenate", "expire"})


class FlowSteeringCache:
    """Per-flow dispatch cache: RSS hash input ⟶ core, across traces.

    RSS steering is a pure function of the packet's hash-input fields and
    the ingress port, so the first packet of a flow fixes the core for
    every later packet of that flow.  The cache works at *unique-flow*
    granularity: a port's RSS field columns are packed into integer
    words and deduplicated, the unique keys are probed with one C-level
    ``map(dict.get, ...)``, only the misses are Toeplitz-hashed, and the
    per-packet fan-out back is a single vectorized gather.

    The one way a cached decision can go stale is the indirection table
    being rebalanced underneath it (RSS++ moves entries between queues),
    so the cache snapshots :attr:`RssConfiguration.steering_generation`
    and flushes itself whenever the tables change.

    Counters: ``fastpath.hits`` counts packets dispatched from the cache,
    ``fastpath.misses`` counts unique flows that had to be hashed.
    """

    def __init__(self, rss) -> None:
        self.rss = rss
        # Flow key -> core; a flow key is the packed hash input with the
        # port's index in ``rss.ports`` in its low bits (see _steer_port).
        # Values are plain core ints: the fuzzer's stale-cache fault
        # injector rewrites them.
        self._cores: dict[int, int] = {}
        # Indirection-table slot per cached flow, kept in a parallel dict
        # (not folded into _cores values): elastic runs need the slot to
        # bucket-tag state.
        self._slots: dict[int, int] = {}
        self._generation = rss.steering_generation
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        # Whole-trace memo: steering is a pure function of (generation,
        # packets), so replaying the *same, unchanged* trace against an
        # unchanged generation can skip hashing entirely.  Keyed by the
        # PacketBatch snapshot, so an in-place edit of the list misses.
        self._trace_memo: tuple | None = None

    def __len__(self) -> int:
        return len(self._cores)

    def invalidate(self) -> None:
        """Drop every cached dispatch decision."""
        self._cores.clear()
        self._slots.clear()
        self._trace_memo = None
        self._generation = self.rss.steering_generation
        self.invalidations += 1

    def stats(self) -> dict:
        """Accounting snapshot for oracles and reports.

        ``generation`` is the steering generation the current entries
        were hashed under; a mismatch with
        ``rss.steering_generation`` means the next :meth:`steer` call
        will self-invalidate.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cores),
            "invalidations": self.invalidations,
            "generation": self._generation,
        }

    def _check_generation(self) -> None:
        if self._generation != self.rss.steering_generation:
            self.invalidate()

    def steer(
        self,
        trace: Sequence[tuple[int, "object"]],
        *,
        with_misses: bool = False,
        with_slots: bool = False,
        batch: PacketBatch | None = None,
    ) -> np.ndarray | tuple[np.ndarray, ...]:
        """Core ids for every packet of ``trace``, in trace order.

        ``with_misses=True`` additionally returns a per-packet boolean
        mask — True where the packet's flow had to be hashed (a cache
        miss) — which is what lets the telemetry plane attribute
        ``steer_hits``/``steer_misses`` to windows without re-probing
        the cache per packet.

        ``with_slots=True`` additionally returns the per-packet
        indirection-table slot (the steering *bucket*), which elastic
        runs use to bucket-tag the state each packet creates.  Return
        order is ``cores[, miss][, slots]``.

        ``batch`` is the call's :class:`PacketBatch` of ``trace``, if the
        caller already has one; its columns are shared, not re-extracted.
        """
        self._check_generation()
        memo = self._trace_memo
        # A caller passing the memo's own batch has already matched it
        # against ``trace``; anyone else pays the item-by-item check.
        if memo is not None and (
            memo[0] is batch or memo[0].matches(trace)
        ) and (not with_slots or memo[3] is not None):
            # Every flow of this exact trace is already cached; replay
            # the decisions and the counters a warm re-steer would emit.
            _, memo_cores, port_counts, memo_slots = memo
            n = len(trace)
            self.hits += n
            if obs.enabled():
                for port, count in port_counts:
                    obs.counter("fastpath.misses", 0, port=port)
                    obs.counter("fastpath.hits", count, port=port)
            out: list[np.ndarray] = [memo_cores.copy()]
            if with_misses:
                out.append(np.zeros(n, dtype=bool))
            if with_slots:
                out.append(memo_slots.copy())
            return out[0] if len(out) == 1 else tuple(out)
        if batch is None:
            batch = PacketBatch(trace)
        n = batch.n
        cores = np.zeros(n, dtype=np.int64)
        miss = np.zeros(n, dtype=bool) if with_misses else None
        slots = np.zeros(n, dtype=np.int64) if with_slots else None
        ports = batch.ports
        uniq, first = np.unique(ports, return_index=True)
        port_counts = []
        for port in uniq[np.argsort(first)].tolist():
            idx = np.flatnonzero(ports == port)
            port_cores, port_miss, port_slots = self._steer_port(
                port, batch, idx, with_misses, with_slots
            )
            cores[idx] = port_cores
            if miss is not None and port_miss is not None:
                miss[idx] = port_miss
            if slots is not None and port_slots is not None:
                slots[idx] = port_slots
            port_counts.append((port, idx.size))
        self._trace_memo = (
            batch,
            cores.copy(),
            port_counts,
            slots.copy() if slots is not None else None,
        )
        out = [cores]
        if with_misses:
            out.append(miss)
        if with_slots:
            out.append(slots)
        return out[0] if len(out) == 1 else tuple(out)

    def _steer_port(
        self,
        port: int,
        batch: PacketBatch,
        idx: np.ndarray,
        with_misses: bool = False,
        with_slots: bool = False,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        config = self.rss.port_config(port)
        fields = config.option.fields
        m = idx.size
        if not fields:
            # Degenerate empty field option: every packet hashes alike.
            core = config.table.lookup(0)
            mask = np.zeros(m, dtype=bool) if with_misses else None
            slots = np.zeros(m, dtype=np.int64) if with_slots else None
            return np.full(m, core, dtype=np.int64), mask, slots
        # Collapse the port's packets to unique flows: the hash-input
        # fields, truncated to their widths, packed into uint64 words.
        cols = [batch.column(fld.packet_field)[idx] for fld in fields]
        words = pack_words(
            [col & ((1 << fld.width) - 1) for col, fld in zip(cols, fields)],
            [fld.width for fld in fields],
        )
        keys, rep, inverse = unique_words(words)
        # Tag each key with the port: shift in the port's index.
        port_bits = (len(self.rss.ports) - 1).bit_length()
        if port_bits:
            index = list(self.rss.ports).index(port)
            keys = list(map(
                operator.or_, map(operator.lshift, keys, repeat(port_bits)),
                repeat(index),
            ))
        n_unique = len(keys)
        unique_cores = np.fromiter(
            map(self._cores.get, keys, repeat(-1)), np.int64, count=n_unique
        )
        unique_slots = (
            np.fromiter(
                map(self._slots.get, keys, repeat(0)), np.int64,
                count=n_unique,
            )
            if with_slots else None
        )
        missing = np.flatnonzero(unique_cores < 0)
        if missing.size:
            at = rep[missing]
            hashes = config.hash_rows(
                hash_input_rows([col[at] for col in cols], config.option,
                                missing.size)
            )
            steered = config.table.steer_batch(hashes)
            hash_slots = np.asarray(hashes, dtype=np.int64) & (
                config.table.size - 1
            )
            unique_cores[missing] = steered
            if unique_slots is not None:
                unique_slots[missing] = hash_slots
            new_keys = list(map(keys.__getitem__, missing.tolist()))
            self._cores.update(zip(new_keys, steered.tolist()))
            self._slots.update(zip(new_keys, hash_slots.tolist()))
        miss_unique = np.zeros(n_unique, dtype=bool)
        miss_unique[missing] = True
        mask = miss_unique[inverse]
        miss_packets = int(np.count_nonzero(mask))
        self.misses += missing.size
        self.hits += m - miss_packets
        if obs.enabled():
            obs.counter("fastpath.misses", missing.size, port=port)
            obs.counter("fastpath.hits", m - miss_packets, port=port)
        slots_out = (
            unique_slots[inverse] if unique_slots is not None else None
        )
        return (
            unique_cores[inverse], mask if with_misses else None, slots_out
        )


class _ResultsView(Sequence):
    """The classic ``[(core_id, PacketResult), ...]`` list, as a view.

    FunctionalRun stores core ids in a NumPy array and the PacketResults
    in a flat list; this view zips them on demand so existing callers
    (tests, examples, the equivalence checker) keep their list API
    without the run paying for tuple materialization per packet.
    """

    __slots__ = ("_run",)

    def __init__(self, run: "FunctionalRun") -> None:
        self._run = run

    def __len__(self) -> int:
        return self._run.n_packets

    def __getitem__(self, index):
        run = self._run
        if isinstance(index, slice):
            indices = range(*index.indices(run.n_packets))
            return [
                (int(run._core_ids[i]), run._packet_results[i])
                for i in indices
            ]
        if index < 0:
            index += run.n_packets
        if not 0 <= index < run.n_packets:
            raise IndexError("results index out of range")
        return (int(run._core_ids[index]), run._packet_results[index])

    def __iter__(self) -> Iterator[tuple[int, PacketResult]]:
        run = self._run
        core_ids = run._core_ids
        for i, result in enumerate(run._packet_results):
            yield (int(core_ids[i]), result)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_ResultsView, list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def append(self, item: tuple[int, PacketResult]) -> None:
        """List-compatible append: record one ``(core_id, result)``."""
        core_id, result = item
        self._run.add(core_id, result)


@dataclass
class FunctionalRun:
    """Results of pushing one trace through a parallel NF.

    Storage is array-backed: core ids and action codes live in
    preallocated NumPy arrays (grown geometrically when a run outlives
    its initial capacity) and the per-packet :class:`PacketResult`
    objects in a flat list.  ``results`` exposes the familiar
    ``[(core_id, result), ...]`` sequence as a zero-copy view, and the
    aggregate metrics are vectorized (``np.bincount``) and cached rather
    than re-looping over the results on every property access.
    """

    parallel: ParallelNF
    capacity: int = 0

    def __post_init__(self) -> None:
        capacity = max(int(self.capacity), 0)
        self._core_ids = np.zeros(capacity, dtype=np.int64)
        self._action_codes = np.zeros(capacity, dtype=np.int8)
        #: Prefix of ``_action_codes`` filled so far; bulk installs defer
        #: the per-result enum lookup until a metric actually needs it.
        self._codes_filled = 0
        self._packet_results: list[PacketResult] = []
        self._n = 0
        self._cache: dict[str, object] = {}

    # -------------------------------------------------------------- #
    # Storage
    # -------------------------------------------------------------- #
    def _ensure_capacity(self, n: int) -> None:
        if n <= len(self._core_ids):
            return
        new_size = max(n, 2 * len(self._core_ids), 1024)
        self._core_ids = np.resize(self._core_ids, new_size)
        self._action_codes = np.resize(self._action_codes, new_size)

    def add(self, core_id: int, result: PacketResult) -> None:
        """Record one processed packet."""
        i = self._n
        self._ensure_capacity(i + 1)
        self._core_ids[i] = core_id
        self._action_codes[i] = ACTION_CODES[result.kind]
        if self._codes_filled == i:
            self._codes_filled = i + 1
        self._packet_results.append(result)
        self._n = i + 1
        self._cache.clear()

    def _bulk_install(
        self, core_ids: np.ndarray, results: list[PacketResult]
    ) -> None:
        """Fast-path fill: all packets of a trace at once.

        Action codes are *not* materialized here — ``_fill_codes`` does it
        lazily on the first metric access, keeping the per-result enum
        lookup out of the simulation's timed path.
        """
        n = len(results)
        self._ensure_capacity(self._n + n)
        start = self._n
        self._core_ids[start : start + n] = core_ids
        self._packet_results.extend(results)
        self._n = start + n
        self._cache.clear()

    def _fill_codes(self) -> None:
        if self._codes_filled < self._n:
            start = self._codes_filled
            codes = ACTION_CODES
            self._action_codes[start : self._n] = np.fromiter(
                (codes[r.kind] for r in self._packet_results[start : self._n]),
                dtype=np.int8,
                count=self._n - start,
            )
            self._codes_filled = self._n

    @property
    def results(self) -> _ResultsView:
        return _ResultsView(self)

    @property
    def core_ids(self) -> np.ndarray:
        """Core of each packet, in trace order (read-only array view)."""
        view = self._core_ids[: self._n]
        view.flags.writeable = False
        return view

    @property
    def action_codes(self) -> np.ndarray:
        """Per-packet :data:`ACTION_CODES` value (read-only array view)."""
        self._fill_codes()
        view = self._action_codes[: self._n]
        view.flags.writeable = False
        return view

    @property
    def n_packets(self) -> int:
        return self._n

    # -------------------------------------------------------------- #
    # Metrics (vectorized, cached until the next add)
    # -------------------------------------------------------------- #
    def core_counts(self) -> np.ndarray:
        cached = self._cache.get("core_counts")
        if cached is None:
            cached = np.bincount(
                self._core_ids[: self._n], minlength=self.parallel.n_cores
            ).astype(np.int64)
            self._cache["core_counts"] = cached
        return cached.copy()

    def core_shares(self) -> np.ndarray:
        counts = self.core_counts().astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts

    def imbalance(self) -> float:
        """max-share / fair-share: 1.0 is perfect balance."""
        shares = self.core_shares()
        return float(shares.max() * self.parallel.n_cores)

    def action_counts(self) -> dict[ActionKind, int]:
        cached = self._cache.get("action_counts")
        if cached is None:
            self._fill_codes()
            counts = np.bincount(
                self._action_codes[: self._n], minlength=len(_KIND_FOR_CODE)
            )
            cached = {
                _KIND_FOR_CODE[code]: int(count)
                for code, count in enumerate(counts)
                if count
            }
            self._cache["action_counts"] = cached
        return dict(cached)

    def hard_write_flags(self) -> np.ndarray:
        """Per-packet flag: performed a hard (non-aging) state write.

        Computed once per run state (single pass over the op records) and
        cached; ``write_fraction`` is a vectorized mean over it.
        """
        cached = self._cache.get("hard_writes")
        if cached is None:
            soft = _SOFT_WRITE_OPS
            cached = np.fromiter(
                (
                    any(op.write and op.op not in soft for op in result.ops)
                    for result in self._packet_results
                ),
                dtype=bool,
                count=self._n,
            )
            cached.flags.writeable = False
            self._cache["hard_writes"] = cached
        return cached

    def write_fraction(self) -> float:
        """Fraction of packets performing a hard (non-aging) state write."""
        if not self._n:
            return 0.0
        return float(self.hard_write_flags().sum()) / self._n


def _window_rows(
    parallel: ParallelNF,
    before: list[tuple[int, int, int, int]],
    packets: Sequence[int],
    locked: frozenset,
    hits: Sequence[int] | None = None,
    misses: Sequence[int] | None = None,
) -> list[list[int]]:
    """Per-core telemetry rows for one window, from ctx snapshot deltas.

    Row order matches :data:`repro.obs.telemetry.METRICS`.  Because the
    rows are deltas of the same lifetime counters the aggregate metrics
    read, window sums telescope exactly to the run totals (the
    conservation property the telemetry tests pin down).
    """
    rows: list[list[int]] = []
    for core_id, core in enumerate(parallel.cores):
        r0, w0, nf0, lw0 = before[core_id]
        r1, w1, nf1, lw1 = core.ctx.stat_snapshot(locked)
        rows.append(
            [
                int(packets[core_id]),
                r1 - r0,
                w1 - w0,
                nf1 - nf0,
                lw1 - lw0,
                int(hits[core_id]) if hits is not None else 0,
                int(misses[core_id]) if misses is not None else 0,
            ]
        )
    return rows


def _run_reference(
    parallel: ParallelNF, trace: Trace, run: FunctionalRun
) -> FunctionalRun:
    """The seed packet-at-a-time path: scalar RSS per packet (the oracle)."""
    sink = obs.active_telemetry()
    if sink is None:
        for port, pkt in trace:
            run.add(*parallel.process(port, pkt))
        return run
    # Telemetry attached: same per-packet loop, with a window boundary
    # every ``window_packets`` packets.  No steering cache on this path,
    # so steer_hits/steer_misses stay zero.
    locked = parallel.lock_plan.locked
    n = len(trace)
    start = 0
    while start < n:
        end = min(start + sink.window_packets, n)
        before = [core.ctx.stat_snapshot(locked) for core in parallel.cores]
        packets = [0] * parallel.n_cores
        for i in range(start, end):
            core_id, result = parallel.process(*trace[i])
            run.add(core_id, result)
            packets[core_id] += 1
        sink.record_window(_window_rows(parallel, before, packets, locked))
        start = end
    return run


def _execute_slice(
    parallel: ParallelNF,
    trace: Trace,
    core_ids: np.ndarray,
    results: list,
    start: int,
    end: int,
    buckets: np.ndarray | None = None,
) -> None:
    """Run ``trace[start:end]`` on pre-steered cores, filling ``results``.

    ``buckets`` (elastic runs) carries the per-packet indirection-table
    slot; it is installed as ``ctx.current_bucket`` before each packet so
    created state gets bucket-tagged for live migration.
    """
    if parallel.strategy is Strategy.SHARED_NOTHING:
        # State shards are per-core and traces are timestamp-ordered,
        # so each core's packets can run as one tight batch: same
        # per-core arrival order, identical per-packet results,
        # better locality.  starmap keeps the dispatch loop in C.
        chunk = core_ids[start:end]
        for core_id, core in enumerate(parallel.cores):
            idx = (np.flatnonzero(chunk == core_id) + start).tolist()
            if not idx:
                continue
            if buckets is None:
                outs = starmap(core.ctx.run, [trace[i] for i in idx])
                for i, result in zip(idx, outs):
                    results[i] = result
            else:
                ctx = core.ctx
                for i in idx:
                    ctx.current_bucket = int(buckets[i])
                    port, pkt = trace[i]
                    results[i] = ctx.run(port, pkt)
    else:
        # Shared state store: cross-core interleaving is observable,
        # keep strict trace order.
        ctxs = [core.ctx for core in parallel.cores]
        for i in range(start, end):
            port, pkt = trace[i]
            results[i] = ctxs[core_ids[i]].run(port, pkt)


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for one batched call.

    Steering allocates one key per unique flow and execution one result
    (plus its mods/ops containers) per packet, and nothing is freed, so
    generational collections triggered mid-call only re-scan live
    objects — worth ~15% of the whole per-packet budget at trace scale.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _run_fastpath(
    parallel: ParallelNF,
    trace: Trace,
    run: FunctionalRun,
    flow_cache: FlowSteeringCache | None,
) -> FunctionalRun:
    """Batched steering + grouped execution, bit-identical to the oracle."""
    cache = flow_cache if flow_cache is not None else FlowSteeringCache(parallel.rss)
    sink = obs.active_telemetry()
    elastic = parallel.elastic
    buckets: np.ndarray | None = None
    if sink is None:
        if elastic:
            core_ids, buckets = cache.steer(trace, with_slots=True)
        else:
            core_ids = cache.steer(trace)
        miss_mask = None
    elif elastic:
        core_ids, miss_mask, buckets = cache.steer(
            trace, with_misses=True, with_slots=True
        )
    else:
        core_ids, miss_mask = cache.steer(trace, with_misses=True)
    n = len(trace)
    results: list[PacketResult | None] = [None] * n
    stats_before = [_ctx_stat_snapshot(core.ctx) for core in parallel.cores]
    if sink is None:
        _execute_slice(parallel, trace, core_ids, results, 0, n, buckets)
    elif n:
        # Telemetry attached: execute in window-sized chunks, with
        # one O(cores) snapshot delta per boundary.  Per-core order
        # is preserved across chunk boundaries, so the results stay
        # bit-identical to the plain fast path.  All O(n) work — the
        # per-core partition and the per-window packet/miss counts —
        # happens once up front; the chunk loop itself only slices
        # precomputed lists, keeping the telemetry surcharge to the
        # O(windows x cores) snapshots the design budgets for.
        locked = parallel.lock_plan.locked
        n_cores = parallel.n_cores
        edges = np.append(np.arange(0, n, sink.window_packets), n)
        n_chunks = len(edges) - 1
        flat = (np.arange(n) // sink.window_packets) * n_cores + core_ids
        pkt_counts = np.bincount(
            flat, minlength=n_chunks * n_cores
        ).reshape(n_chunks, n_cores)
        miss_counts = np.bincount(
            flat[miss_mask], minlength=n_chunks * n_cores
        ).reshape(n_chunks, n_cores)
        shared_nothing = parallel.strategy is Strategy.SHARED_NOTHING
        if shared_nothing:
            # One partition pass per core (exactly what the plain
            # fast path does), then searchsorted window boundaries
            # into each core's private order.
            idx_by_core: list[list[int]] = []
            pkts_by_core: list[list] = []
            bounds_by_core: list[np.ndarray] = []
            for core_id in range(n_cores):
                order = np.flatnonzero(core_ids == core_id)
                idx = order.tolist()
                idx_by_core.append(idx)
                pkts_by_core.append([trace[i] for i in idx])
                bounds_by_core.append(np.searchsorted(order, edges))
        for k in range(n_chunks):
            before = [
                core.ctx.stat_snapshot(locked) for core in parallel.cores
            ]
            if shared_nothing:
                for core_id, core in enumerate(parallel.cores):
                    bounds = bounds_by_core[core_id]
                    lo, hi = int(bounds[k]), int(bounds[k + 1])
                    if lo == hi:
                        continue
                    if buckets is None:
                        outs = starmap(
                            core.ctx.run, pkts_by_core[core_id][lo:hi]
                        )
                        for i, result in zip(
                            idx_by_core[core_id][lo:hi], outs
                        ):
                            results[i] = result
                    else:
                        ctx = core.ctx
                        for i in idx_by_core[core_id][lo:hi]:
                            ctx.current_bucket = int(buckets[i])
                            port, pkt = trace[i]
                            results[i] = ctx.run(port, pkt)
            else:
                _execute_slice(
                    parallel, trace, core_ids, results,
                    int(edges[k]), int(edges[k + 1]), buckets,
                )
            misses = miss_counts[k]
            sink.record_window(
                _window_rows(
                    parallel, before, pkt_counts[k], locked,
                    hits=pkt_counts[k] - misses, misses=misses,
                )
            )
    _reconcile_core_stats(parallel, core_ids, stats_before)
    run._bulk_install(core_ids, results)
    return run


#: Cached-compile sentinel: ``compile_parallel`` returned None once, so
#: don't retry it on every run of the same ParallelNF.
_COMPILE_FAILED = object()


def _get_dispatcher(parallel: ParallelNF):
    """Compile (once) and cache the kernel dispatcher on the ParallelNF."""
    cached = getattr(parallel, "_compiled_dispatcher", None)
    if cached is _COMPILE_FAILED:
        return None
    if cached is not None:
        return cached
    dispatcher = compile_parallel(parallel)
    parallel._compiled_dispatcher = (
        dispatcher if dispatcher is not None else _COMPILE_FAILED
    )
    return dispatcher


def _run_compiled(
    parallel: ParallelNF,
    trace: Trace,
    run: FunctionalRun,
    flow_cache: FlowSteeringCache | None,
    dispatcher,
) -> FunctionalRun:
    """Fast path with compiled kernels: chunked classify/apply execution.

    Mirrors :func:`_run_fastpath` exactly (steering, telemetry windows,
    stat reconciliation) but hands each chunk to the
    :class:`repro.sim.compiled.CompiledDispatcher`, which runs kernel
    lanes vectorized and falls back to the interpreter per lane.  Chunk
    edges include every telemetry window boundary, so recorded windows
    stay bit-identical to the interpreter fast path.
    """
    cache = flow_cache if flow_cache is not None else FlowSteeringCache(parallel.rss)
    sink = obs.active_telemetry()
    elastic = parallel.elastic
    buckets: np.ndarray | None = None
    # One column pass per call: steering and the dispatcher share it.
    batch = dispatcher.batch_for(trace)
    if sink is None:
        if elastic:
            core_ids, buckets = cache.steer(
                trace, with_slots=True, batch=batch
            )
        else:
            core_ids = cache.steer(trace, batch=batch)
        miss_mask = None
        wp = 0
    else:
        if elastic:
            core_ids, miss_mask, buckets = cache.steer(
                trace, with_misses=True, with_slots=True, batch=batch
            )
        else:
            core_ids, miss_mask = cache.steer(
                trace, with_misses=True, batch=batch
            )
        wp = sink.window_packets
    n = len(trace)
    results: list[PacketResult | None] = [None] * n
    stats_before = [_ctx_stat_snapshot(core.ctx) for core in parallel.cores]
    k0 = dispatcher.kernel_packets
    f0 = dispatcher.fallback_packets
    try:
        edges = dispatcher.start_run(batch, core_ids, wp, bucket_ids=buckets)
        if sink is None:
            for i in range(len(edges) - 1):
                dispatcher.run_chunk(edges[i], edges[i + 1], results)
        elif n:
            locked = parallel.lock_plan.locked
            n_cores = parallel.n_cores
            w_edges = np.append(np.arange(0, n, wp), n)
            n_windows = len(w_edges) - 1
            flat = (np.arange(n) // wp) * n_cores + core_ids
            pkt_counts = np.bincount(
                flat, minlength=n_windows * n_cores
            ).reshape(n_windows, n_cores)
            miss_counts = np.bincount(
                flat[miss_mask], minlength=n_windows * n_cores
            ).reshape(n_windows, n_cores)
            k = 0
            before = [
                core.ctx.stat_snapshot(locked) for core in parallel.cores
            ]
            for i in range(len(edges) - 1):
                dispatcher.run_chunk(edges[i], edges[i + 1], results)
                if k < n_windows and edges[i + 1] == int(w_edges[k + 1]):
                    misses = miss_counts[k]
                    sink.record_window(
                        _window_rows(
                            parallel, before, pkt_counts[k], locked,
                            hits=pkt_counts[k] - misses, misses=misses,
                        )
                    )
                    k += 1
                    if k < n_windows:
                        before = [
                            core.ctx.stat_snapshot(locked)
                            for core in parallel.cores
                        ]
    finally:
        dispatcher.end_run()
    _reconcile_core_stats(parallel, core_ids, stats_before)
    run._bulk_install(core_ids, results)
    run.compiled = dispatcher.run_stats(k0, f0)
    run.compiled_path_ids = dispatcher.path_ids
    if obs.enabled():
        obs.counter(
            "compiled.paths", dispatcher.supported_paths, nf=parallel.nf.name
        )
        obs.counter(
            "compiled.hits", run.compiled["kernel_packets"],
            nf=parallel.nf.name,
        )
        obs.counter(
            "compiled.fallbacks", run.compiled["fallback_packets"],
            nf=parallel.nf.name,
        )
    return run


def _ctx_stat_snapshot(ctx) -> tuple[int, int, int]:
    """``(reads, writes, new_flow_packets)`` lifetime totals of one ctx."""
    reads, writes, new_flows, _ = ctx.stat_snapshot()
    return reads, writes, new_flows


def _reconcile_core_stats(
    parallel: ParallelNF,
    core_ids: np.ndarray,
    stats_before: list[tuple[int, int, int]],
) -> None:
    """Bring CoreInstance counters to exactly the reference path's state.

    The fast path bypasses :meth:`CoreInstance.run`, so the per-core
    packet/read/write/new-flow totals are reconciled from the contexts'
    lifetime counters (``op_totals``/``new_flow_total``) instead: one
    snapshot delta per core — O(cores * state objects) — rather than a
    Python loop over every packet's op records.
    """
    per_core_packets = np.bincount(core_ids, minlength=parallel.n_cores)
    for core_id, core in enumerate(parallel.cores):
        reads0, writes0, new0 = stats_before[core_id]
        reads1, writes1, new1 = _ctx_stat_snapshot(core.ctx)
        core.packets += int(per_core_packets[core_id])
        core.reads += reads1 - reads0
        core.writes += writes1 - writes0
        core.new_flows += new1 - new0


def run_functional(
    parallel: ParallelNF,
    trace: Trace,
    *,
    balance_tables_with: Trace | None = None,
    fastpath: bool = True,
    flow_cache: FlowSteeringCache | None = None,
    sanitize: bool = False,
    kernels: bool = True,
) -> FunctionalRun:
    """Execute ``trace`` on the parallel NF.

    ``balance_tables_with`` applies the static RSS++ rebalancing (§4)
    using a sample trace before the measured run — the "balanced" series
    of Figures 5 and 14.

    ``fastpath=False`` selects the packet-at-a-time reference path;
    ``flow_cache`` carries a :class:`FlowSteeringCache` across runs so a
    warm cache keeps paying off (it self-invalidates if the indirection
    tables are rebalanced in between).

    ``kernels=True`` (the default) additionally compiles the NF's
    execution tree into vectorized batch kernels
    (:mod:`repro.sim.compiled`) and runs whole chunks through them,
    falling back to the interpreter per lane; results stay bit-identical.
    Attached collectors see the same counter totals either way (kernel
    lanes emit ``nf.state_op`` in bulk); kernels are skipped under
    ``sanitize``.

    ``sanitize=True`` forces the reference path regardless of
    ``fastpath``/``flow_cache``/``kernels``: the race sanitizer's event
    log (:mod:`repro.analysis.race`) needs every packet processed one at
    a time in global trace order, so the steering memo, the compiled
    kernels, and the per-core grouped execution are bypassed.  Results
    stay bit-identical — only the interleaving of the per-core batches
    changes.
    """
    if balance_tables_with is not None:
        parallel.rss.balance_tables(balance_tables_with)
    run = FunctionalRun(parallel=parallel, capacity=len(trace))
    with obs.span(
        "sim.run_functional",
        nf=parallel.nf.name,
        n_packets=len(trace),
        fastpath=fastpath and not sanitize,
        sanitize=sanitize,
    ):
        if sanitize or not fastpath or not trace:
            return _run_reference(parallel, trace, run)
        dispatcher = _get_dispatcher(parallel) if kernels else None
        with _gc_paused():
            if dispatcher is not None:
                return _run_compiled(
                    parallel, trace, run, flow_cache, dispatcher
                )
            return _run_fastpath(parallel, trace, run, flow_cache)


# ------------------------------------------------------------------ #
# Chain execution
# ------------------------------------------------------------------ #
@dataclass
class ChainRun:
    """Aggregate outcome of executing a trace through a parallel chain."""

    results: list = field(default_factory=list)
    #: hop executions landing on each core (joint mode: every hop of a
    #: packet counts toward the packet's single steered core)
    core_hop_packets: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: packets processed per hop alias
    hop_packets: dict = field(default_factory=dict)
    #: cross-core handoffs observed (always 0 in joint mode)
    handoffs: int = 0
    #: hop-boundary transitions observed (handoff denominator)
    hop_transitions: int = 0

    @property
    def handoff_fraction(self) -> float:
        if not self.hop_transitions:
            return 0.0
        return self.handoffs / self.hop_transitions

    def core_shares(self) -> np.ndarray:
        total = self.core_hop_packets.sum()
        if not total:
            return self.core_hop_packets.astype(np.float64)
        return self.core_hop_packets / total


def run_chain(parallel, trace: Trace) -> ChainRun:
    """Execute ``trace`` through a :class:`repro.chain.runtime.ParallelChain`.

    The chain analogue of :func:`run_functional`'s reference path:
    packet-at-a-time in trace order (run-to-completion through the whole
    chain), recording per-core load, per-hop packet counts, and — in
    fallback mode — the cross-core handoffs the per-hop steering caused.
    """
    run = ChainRun(
        core_hop_packets=np.zeros(parallel.n_cores, dtype=np.int64),
        hop_packets={alias: 0 for alias in parallel.hops},
    )
    before_handoffs = parallel.handoffs
    before_transitions = parallel.hop_transitions
    with obs.span(
        "sim.run_chain",
        chain=parallel.chain.name,
        mode=parallel.mode,
        n_packets=len(trace),
    ):
        for port, pkt in trace:
            result = parallel.process(port, pkt)
            run.results.append(result)
            for step in result.steps:
                run.hop_packets[step.alias] += 1
                if step.core is not None:
                    run.core_hop_packets[step.core] += 1
    run.handoffs = parallel.handoffs - before_handoffs
    run.hop_transitions = parallel.hop_transitions - before_transitions
    return run
