"""The three benchmark workloads over the nine corpus NFs.

* ``build`` (cold): each repetition builds all nine NFs from scratch
  (``Maestro.analyze`` -> ``parallelize(n_cores=8)`` -> ``compile_parallel``
  -> ``certify_nf``) and sends each NF, right after its build, its first
  8192 packets in 1024-packet calls.
* ``steady`` (warm-new): one long-lived ``ParallelNF`` and
  ``FlowSteeringCache`` per NF; an untimed warm-up opens 2000 flows, then
  every timed call carries 8192 new packets of those flows.
* ``churn`` (warm-new with turnover): 2000 live flows, 5% of packets open
  a fresh flow, 1024-packet calls.

Every run checks its outputs.  Builds must give the corpus verdict and
no certify finding.  Dataplane calls are replayed, after the timed phase,
through the packet-at-a-time reference (``run_functional(...,
fastpath=False)``) on a fresh plan from the same analysis; per-packet
results, core ids and per-core counters must match.  Each workload
checks a bounded prefix of its call sequence for every NF.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import repro.analysis as analysis
import repro.core.pipeline as pipeline
import repro.sim.compiled as sim_compiled
import repro.sim.functional as functional
from repro.core.codegen import ParallelNF
from repro.core.sharding import ConstraintsGenerator
from repro.nf.nfs import ALL_NFS
from repro.nf.runtime import ConcreteContext
from repro.rs3.solver import RssKeySolver

from perfbench.spans import SpanRecorder
from perfbench.traffic import ChurnTraffic, SteadyTraffic

N_CORES = 8
#: Set-ups per ``steady``/``churn`` run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Timed packets per NF after which ``steady``/``churn`` read the peak
#: resident memory.  Some state grows with every new flow (the steering
#: cache keeps each flow it has hashed), so a peak read at the deadline
#: would grow with the machine's speed; read after a fixed amount of
#: traffic, it does not.  Both workloads reach it within a few seconds.
MEMORY_PACKETS = 65536

#: The corpus table (README, DESIGN): the verdict each NF must get.
EXPECTED_VERDICTS = {
    "nop": "load-balance",
    "sbridge": "load-balance",
    "policer": "shared-nothing",
    "fw": "shared-nothing",
    "psd": "shared-nothing",
    "nat": "shared-nothing",
    "cl": "shared-nothing",
    "dbridge": "locks",
    "lb": "locks",
}


@dataclass(frozen=True)
class Shape:
    """How a workload's traffic reaches the NFs."""

    traffic: type
    #: packets per timed call
    call: int
    #: untimed calls after the establishing call
    warm_calls: int
    #: timed calls per NF replayed through the reference
    check_calls: int


#: Calls each freshly built NF gets in a ``build`` repetition (8192
#: packets, no warm-up); all of them are checked.
COLD_CALLS = 8

SHAPES = {
    "build": Shape(
        SteadyTraffic, call=1024, warm_calls=0, check_calls=COLD_CALLS
    ),
    "steady": Shape(SteadyTraffic, call=8192, warm_calls=1, check_calls=1),
    "churn": Shape(ChurnTraffic, call=1024, warm_calls=4, check_calls=4),
}


class RegimeError(AssertionError):
    """The harness broke its own traffic regime (a benchmark bug)."""


class RegimeGuard:
    """Keeps each NF's calls in the regime the workload names.

    The dataplane memoizes on trace identity
    (``FlowSteeringCache._trace_memo``, ``CompiledDispatcher._trace_ref``),
    so passing a trace twice would turn warm-new traffic into replay.
    Each call must bring a new list whose first timestamp is later than
    the last timestamp of the NF's previous call; since timestamps also
    rise within a call, no earlier trace can come back.  The previous
    trace is kept with a snapshot of its items, and must be unchanged
    when the next call arrives and when the run ends.
    """

    def __init__(self) -> None:
        self._last: dict[str, tuple[list, tuple, float]] = {}

    def admit(self, nf: str, trace: list) -> None:
        if not trace:
            raise RegimeError(f"{nf}: empty call")
        prev = self._last.get(nf)
        if prev is not None:
            self._check_unchanged(nf, prev)
            if trace is prev[0]:
                raise RegimeError(f"{nf}: trace object passed twice")
            if trace[0][1].timestamp <= prev[2]:
                raise RegimeError(f"{nf}: timestamps do not rise across calls")
        self._last[nf] = (trace, tuple(trace), trace[-1][1].timestamp)

    def finish(self) -> None:
        for nf, prev in self._last.items():
            self._check_unchanged(nf, prev)

    @staticmethod
    def _check_unchanged(nf: str, prev: tuple[list, tuple, float]) -> None:
        trace, snapshot, _ = prev
        if len(trace) != len(snapshot) or any(
            a is not b for a, b in zip(trace, snapshot)
        ):
            raise RegimeError(f"{nf}: a trace was mutated after being passed")


def packet_digests(run) -> np.ndarray:
    """One hash per packet of ``(core id, result)``, for later comparison.

    Digests replace the results themselves so that the check does not
    hold every checked ``PacketResult`` in memory (which would show in
    ``peak_rss_mb``).  Equal results give equal digests.
    """
    return np.fromiter(
        (
            hash((cid, r.kind, r.port, tuple(sorted(r.mods.items())),
                  tuple(r.ops), r.new_flow))
            for cid, r in run.results
        ),
        dtype=np.int64,
        count=run.n_packets,
    )


def _memo_counts(dispatcher) -> np.ndarray:
    memo = dispatcher.stats()["memo"]
    return np.array((memo["hits"], memo["misses"]), dtype=np.int64)


def core_counters(parallel: ParallelNF) -> list[tuple[int, int, int, int]]:
    return [
        (core.packets, core.reads, core.writes, core.new_flows)
        for core in parallel.cores
    ]


@dataclass
class Lane:
    """One built NF and the dataplane state that outlives its calls."""

    name: str
    result: pipeline.MaestroResult
    parallel: ParallelNF
    cache: functional.FlowSteeringCache
    #: checked calls: (trace, packet digests, per-core counters after)
    record: list = field(default_factory=list)


@dataclass
class CallStat:
    nf: str
    #: index of the call in its NF's timed sequence; a ``build``
    #: repetition restarts it, so equal positions are the same operation
    position: int
    packets: int
    seconds: float
    traced: bool
    kernel: int
    fallback: int
    steer_hits: int


def _tracer(on_start_run) -> SpanRecorder:
    rec = SpanRecorder()
    # Analysis pipeline.  Maestro calls these through its own module
    # namespace, so that is where they are wrapped.
    rec.register(pipeline, "explore_nf", "symbex.explore")
    rec.register(pipeline, "build_report", "core.constraints")
    rec.register(ConstraintsGenerator, "solve", "core.constraints")
    rec.register(pipeline, "compile_rss", "core.rss_compile")
    rec.register(RssKeySolver, "solve", "rs3.solve")
    rec.register(RssKeySolver, "verify", "rs3.verify")
    rec.register(ParallelNF, "generate", "core.codegen")
    rec.register(sim_compiled, "compile_parallel", "sim.compile")
    rec.register(analysis, "certify_nf", "analysis.certify")
    # Dataplane.
    rec.register(functional, "run_functional", "sim.run_functional")
    rec.register(functional.FlowSteeringCache, "steer", "sim.steer")
    rec.register(
        sim_compiled.CompiledDispatcher, "start_run", "sim.start_run",
        on_enter=on_start_run,
    )
    rec.register(sim_compiled.CompiledDispatcher, "run_chunk", "sim.chunk")
    rec.register(ConcreteContext, "run", "nf.interp")
    return rec


class Bench:
    """One workload run: set-up, timed phase, check, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.shape = SHAPES[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rec = _tracer(self._on_start_run)
        #: operations (NF builds and checked packets) attempted and failed
        self.attempted = 0
        self.failed = 0
        self.guard = RegimeGuard()
        self.calls: list[CallStat] = []
        self.build_s: list[float] = []
        self.nf_build_s: dict[str, list[float]] = {n: [] for n in ALL_NFS}
        self.key_attempts: list[int] = []
        #: call id -> "build" | "call", for spans of traced operations
        self.call_kind: dict[int, str] = {}
        self.traced_builds = 0
        self.traced_rounds = 0
        #: memo (hits, misses) over traced calls, and the dispatchers a
        #: traced call started, with their counts at ``start_run``
        self.memo = np.zeros(2, dtype=np.int64)
        self._started: list[tuple[object, np.ndarray]] = []
        #: seconds of check work done inside a set-up (excluded from it)
        self._check_s = 0.0
        #: sample counts behind the reported metrics, for the summary line
        self.samples: dict[str, float] = {}

    # ---------------------------------------------------------- #
    # Building
    # ---------------------------------------------------------- #
    def _next_call(self, kind: str) -> None:
        self.rec.call_id += 1
        if self.rec.attached:
            self.call_kind[self.rec.call_id] = kind

    def build_corpus(self, cold_calls: list | None = None) -> list[Lane]:
        """Build all nine NFs.

        With ``cold_calls`` (the ``build`` workload), each NF gets those
        calls as soon as it is built, after a collection of its build's
        garbage.  Interleaved this way, the first calls of the nine NFs
        fall at nine points spread over the repetition rather than in
        one burst after the last build, so the machine's speed changes
        within a run weigh on them evenly.
        """
        lanes = []
        for name, nf_cls in ALL_NFS.items():
            self._next_call("build")
            t0 = time.perf_counter()
            with self.rec.span("harness.build"):
                lane = self._build_one(name, nf_cls)
            self.nf_build_s[name].append(time.perf_counter() - t0)
            if lane is None:
                continue
            lanes.append(lane)
            if cold_calls is not None:
                gc.collect()
                for position, packets in enumerate(cold_calls):
                    self.send(lane, packets, check=True, position=position)
        self.build_s.append(sum(t[-1] for t in self.nf_build_s.values()))
        if self.rec.attached:
            self.traced_builds += 1
            if cold_calls is not None:
                self.traced_rounds += len(cold_calls)
        # Building allocates millions of objects; without a collection
        # here, the full collection they trigger lands in whichever timed
        # call comes next (~100 ms).  In ``steady``/``churn`` this counts
        # in ``setup_s``; in ``build`` it is untimed.
        gc.collect()
        return lanes

    def _build_one(self, name: str, nf_cls) -> Lane | None:
        try:
            maestro = pipeline.Maestro(seed=self.seed)
            nf = nf_cls()
            result = maestro.analyze(nf)
            parallel = maestro.parallelize(nf, N_CORES, result=result)
            sim_compiled.compile_parallel(parallel)
            report = analysis.certify_nf(
                nf,
                tree=result.tree,
                report=result.report,
                solution=result.solution,
                lock_plan=parallel.lock_plan,
                seed=self.seed,
            )
        except Exception:
            traceback.print_exc()
            print(f"build of {name} raised", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        self.key_attempts.append(result.key_stats.attempts)
        verdict = result.solution.verdict.value
        bad = verdict != EXPECTED_VERDICTS[name] or bool(report.diagnostics)
        if bad:
            print(
                f"build of {name}: verdict {verdict} "
                f"(want {EXPECTED_VERDICTS[name]}), "
                f"{len(report.diagnostics)} certify finding(s)",
                file=sys.stderr,
            )
        self.attempted += 1
        self.failed += int(bad)
        return Lane(name, result, parallel, functional.FlowSteeringCache(parallel.rss))

    # ---------------------------------------------------------- #
    # Sending traffic
    # ---------------------------------------------------------- #
    def send(
        self, lane: Lane, packets: list, *, check: bool, position: int | None
    ):
        """One call; ``position`` None marks an untimed (warm-up) call."""
        timed = position is not None
        trace = list(packets)
        self.guard.admit(lane.name, trace)
        if timed:
            self._next_call("call")
        hits0 = lane.cache.hits
        with self.rec.span("harness.call"):
            t0 = time.perf_counter()
            run = functional.run_functional(
                lane.parallel, trace, flow_cache=lane.cache
            )
            dt = time.perf_counter() - t0
        for dispatcher, before in self._started:
            self.memo += _memo_counts(dispatcher) - before
        self._started.clear()
        if timed:
            compiled = run.compiled or {}
            self.calls.append(CallStat(
                lane.name, position, len(trace), dt, self.rec.attached,
                compiled.get("kernel_packets", 0),
                compiled.get("fallback_packets", len(trace)),
                lane.cache.hits - hits0,
            ))
        if check:
            t0 = time.perf_counter()
            lane.record.append(
                (trace, packet_digests(run), core_counters(lane.parallel))
            )
            self._check_s += time.perf_counter() - t0
        return run

    def round(
        self, lanes: list[Lane], packets: list, check: bool, position: int
    ) -> None:
        for lane in lanes:
            self.send(lane, packets, check=check, position=position)

    def _on_start_run(self, dispatcher, *args, **kwargs) -> None:
        self._started.append((dispatcher, _memo_counts(dispatcher)))

    def traced_round(
        self, lanes: list[Lane], packets: list, check: bool, position: int
    ) -> None:
        """A round with the span recorder attached."""
        self.rec.attach()
        try:
            self.round(lanes, packets, check, position)
            self.traced_rounds += 1
        finally:
            self.rec.detach()

    # ---------------------------------------------------------- #
    # Workloads
    # ---------------------------------------------------------- #
    def run(self, setup_s: list[float] | None = None) -> dict:
        if self.workload == "build":
            lanes = self._run_build()
            # Every repetition does the same work on a fresh corpus.
            peak_mb = _peak_rss_mb()
        else:
            setup_s, lanes, peak_mb = self._run_warm()
        self.guard.finish()
        for lane in lanes:
            self.check(lane)
        return self.metrics(setup_s, peak_mb)

    def _run_build(self) -> list[Lane]:
        shape = self.shape
        lanes: list[Lane] = []
        deadline = time.perf_counter() + self.seconds
        rep = 0
        # Two repetitions at least, so the pooled call latencies have
        # enough samples for their 90th percentile.
        while rep < 2 or time.perf_counter() < deadline:
            traced = self.trace and rep % 2 == 1
            # Only the last repetition's NFs are kept for the check, so
            # one corpus at a time is alive.
            lanes = []
            self.guard.finish()
            self.guard = RegimeGuard()
            gc.collect()
            traffic = shape.traffic(self.seed)
            cold_calls = [traffic.call(shape.call) for _ in range(COLD_CALLS)]
            if traced:
                self.rec.attach()
            try:
                lanes = self.build_corpus(cold_calls)
            finally:
                self.rec.detach()
            rep += 1
        return lanes

    def _setup_warm(self) -> tuple[list[Lane], object]:
        shape = self.shape
        traffic = shape.traffic(self.seed)
        if self.trace:
            self.rec.attach()
        try:
            lanes = self.build_corpus()
        finally:
            self.rec.detach()
        warm = [traffic.establish()]
        warm += [traffic.call(shape.call) for _ in range(shape.warm_calls)]
        for packets in warm:
            for lane in lanes:
                self.send(lane, packets, check=True, position=None)
        return lanes, traffic

    def _run_warm(self) -> tuple[list[float], list[Lane], float]:
        setup_s = []
        lanes: list[Lane] = []
        for _ in range(SETUP_REPS):
            lanes = []
            self.guard.finish()
            self.guard = RegimeGuard()
            gc.collect()
            self._check_s = 0.0
            t0 = time.perf_counter()
            lanes, traffic = self._setup_warm()
            setup_s.append(time.perf_counter() - t0 - self._check_s)
        shape = self.shape
        deadline = time.perf_counter() + self.seconds
        memory_rounds = MEMORY_PACKETS // shape.call
        rounds = 0
        while rounds < memory_rounds or time.perf_counter() < deadline:
            packets = traffic.call(shape.call)
            check = rounds < shape.check_calls
            if self.trace and rounds % 2 == 1:
                self.traced_round(lanes, packets, check, rounds)
            else:
                self.round(lanes, packets, check, rounds)
            rounds += 1
            if rounds == memory_rounds:
                peak_mb = _peak_rss_mb()
        return setup_s, lanes, peak_mb

    # ---------------------------------------------------------- #
    # Checking
    # ---------------------------------------------------------- #
    def check(self, lane: Lane) -> None:
        """Replay the lane's checked calls through the reference."""
        ref = pipeline.Maestro().parallelize(
            type(lane.result.nf)(), N_CORES, result=lane.result
        )
        for trace, digests, counters in lane.record:
            ref_run = functional.run_functional(ref, list(trace), fastpath=False)
            want = packet_digests(ref_run)
            if core_counters(ref) != counters or want.size != digests.size:
                bad = len(trace)
            else:
                bad = int((want != digests).sum())
            if bad:
                print(
                    f"{lane.name}: {bad} of {len(trace)} packets differ "
                    "from the reference",
                    file=sys.stderr,
                )
            self.attempted += len(trace)
            self.failed += bad

    # ---------------------------------------------------------- #
    # Metrics
    # ---------------------------------------------------------- #
    def metrics(self, setup_s: list[float], peak_mb: float) -> dict:
        """End-to-end metrics, or per-layer ones for a traced run.

        Values are ``(value, unit)``.  ``self.samples`` gets the sample
        count behind each timing.

        On a shared virtual machine the CPU runs at a steady base speed
        with bursts, a few seconds long, about a third faster; the share
        of burst time varies from run to run and moves the medians of a
        run's timings by up to 20%, while their upper quartiles stay
        within about 5% (README, "Noise").  So the dataplane timings are
        read at an upper percentile of many short samples, per NF: the
        time the program needs at the base speed.  Builds are too few per
        run (three or four per NF) for an upper percentile, which would
        be their maximum and follow one slow repetition; ``build_s`` and
        ``setup_s`` are medians.
        """
        if self.trace:
            return self.layer_metrics()
        by_nf = _calls_by_nf(self.calls)
        cold = self.workload == "build"
        self.samples.update(
            setup_s=len(setup_s),
            builds_per_nf=min(len(t) for t in self.nf_build_s.values()),
            calls=len(self.calls),
            calls_per_nf=min(len(c) for c in by_nf.values()),
        )
        return {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "build_s": (
                sum(statistics.median(t) for t in self.nf_build_s.values()), "s"
            ),
            "pkts_per_s": (1 / statistics.fmean(_seconds_per_packet(self.calls, cold).values()), "1/s"),
            "call_ms_p75": (_mean_call_ms(by_nf, 75), "ms"),
            "call_ms_p90": (_mean_call_ms(by_nf, 90), "ms"),
        }

    def layer_metrics(self) -> dict:
        """Self times per corpus build and per round, plus layer counts."""
        n_builds = max(self.traced_builds, 1)
        n_rounds = max(self.traced_rounds, 1)
        builds = self._span_totals("build", BUILD_SPANS)
        calls = self._span_totals("call", CALL_SPANS)

        out = {
            f"{span}_ms": (builds[span]["self_s"] * 1e3 / n_builds, "ms")
            for span in BUILD_SPANS
        }
        out["rs3.attempts"] = (
            sum(self.key_attempts) / len(self.build_s), "count"
        )
        out["rs3.accept_frac"] = (
            len(self.key_attempts) / max(sum(self.key_attempts), 1), "fraction"
        )
        for name, times in self.nf_build_s.items():
            out[f"{name}.build_ms"] = (statistics.fmean(times) * 1e3, "ms")

        cold = self.workload == "build"
        untraced = [c for c in self.calls if not c.traced]
        traced = [c for c in self.calls if c.traced]
        memo_hits, memo_misses = (int(x) for x in self.memo)
        for span in CALL_SPANS:
            key = "sim.run_functional_self" if span == "sim.run_functional" else span
            out[f"{key}_ms"] = (calls[span]["self_s"] * 1e3 / n_rounds, "ms")
        out.update({
            "sim.steer_hit_frac": (
                sum(c.steer_hits for c in self.calls)
                / sum(c.packets for c in self.calls),
                "fraction",
            ),
            "sim.chunks": (
                calls["sim.chunk"]["count"] / max(len(traced), 1), "count"
            ),
            "sim.memo_hit_frac": (
                memo_hits / max(memo_hits + memo_misses, 1), "fraction"
            ),
            "sim.kernel_frac": (_kernel_frac(self.calls), "fraction"),
            "nf.interp_calls": (calls["nf.interp"]["count"] / n_rounds, "count"),
        })
        plain = _seconds_per_packet(untraced, cold)
        for name in ALL_NFS:
            mine = [c for c in untraced if c.nf == name]
            out[f"{name}.us_per_pkt"] = (plain[name] * 1e6, "us")
            out[f"{name}.kernel_frac"] = (_kernel_frac(mine), "fraction")
        out["trace.overhead_frac"] = (
            sum(_seconds_per_packet(traced, cold).values()) / sum(plain.values()) - 1,
            "fraction",
        )
        return out

    def _span_totals(self, kind: str, spans: tuple[str, ...]) -> dict:
        """Span totals over traced operations of ``kind``.

        Records in ``self.samples`` the share of the traced roots' time
        that the listed spans' self times account for (1.0 unless a span
        outside the list turned up under those roots).
        """
        ids = {i for i, k in self.call_kind.items() if k == kind}
        totals = self.rec.totals(ids)
        empty = {"self_s": 0.0, "dur_s": 0.0, "count": 0}
        out = {span: totals.get(span, empty) for span in spans}
        root = out[spans[-1]]["dur_s"]
        covered = sum(t["self_s"] for t in out.values())
        self.samples[f"{kind}_roots"] = out[spans[-1]]["count"]
        self.samples[f"{kind}_time_covered"] = round(covered / root, 6) if root else 0
        return out


#: Spans under a traced build and a traced call; the root span is last.
BUILD_SPANS = (
    "symbex.explore", "core.constraints", "core.rss_compile", "rs3.solve",
    "rs3.verify", "core.codegen", "sim.compile", "analysis.certify",
    "harness.build",
)
CALL_SPANS = (
    "sim.steer", "sim.start_run", "sim.chunk", "nf.interp",
    "sim.run_functional", "harness.call",
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _percentile(values: list[float], q: int) -> float:
    """The sample at percentile ``q``, taken from above (no interpolation).

    A ``build`` repetition's first call per NF (kernel compile, every
    flow opened) is one of eight; interpolating would mix it with the
    calls below it, and shift with the number of repetitions.
    """
    return float(np.percentile(values, q, method="higher"))


def _upper_quartile(values: list[float]) -> float:
    return _percentile(values, 75)


def _position_medians(calls: list[CallStat], value) -> list[float]:
    """The median of ``value(call)`` at each call position.

    Calls at the same position of different ``build`` repetitions are
    one operation; in ``steady``/``churn`` each position holds one call.
    """
    by_position: dict[int, list[float]] = {}
    for call in calls:
        by_position.setdefault(call.position, []).append(value(call))
    return [statistics.median(v) for v in by_position.values()]


def _seconds_per_packet(calls: list[CallStat], cold: bool) -> dict[str, float]:
    """Per NF: seconds per packet.

    Warm calls are alike and read at their upper quartile.  A cold
    (``build``) sequence is not: its first two calls open most flows and
    cost more, and an upper quartile of its calls would sit at the edge
    between those and the rest.  So a cold NF's figure is the cost of
    its whole sequence, each position at its median over repetitions.
    """
    out = {}
    for nf, mine in _calls_by_nf(calls).items():
        per_packet = _position_medians(mine, lambda c: c.seconds / c.packets)
        out[nf] = statistics.fmean(per_packet) if cold else _upper_quartile(per_packet)
    return out


def _mean_call_ms(by_nf: dict[str, list[CallStat]], percentile: int) -> float:
    """A percentile of each NF's call latency, averaged over the NFs.

    Per NF first: pooled over NFs, a percentile would fall between the
    latency clusters of different NFs and jump between them.  Calls at
    the same position of different ``build`` repetitions are read at
    their median before the percentile is taken (the first call of a
    fresh NF costs up to three times the others, so mixing its samples
    with theirs would make a cluster edge of the 90th percentile).
    """
    return statistics.fmean(
        _percentile(_position_medians(calls, lambda c: c.seconds), percentile) * 1e3
        for calls in by_nf.values()
    )


def _calls_by_nf(calls: list[CallStat]) -> dict[str, list[CallStat]]:
    by_nf: dict[str, list[CallStat]] = {}
    for call in calls:
        by_nf.setdefault(call.nf, []).append(call)
    return by_nf


def _kernel_frac(calls: list[CallStat]) -> float:
    kernel = sum(c.kernel for c in calls)
    return kernel / max(kernel + sum(c.fallback for c in calls), 1)
