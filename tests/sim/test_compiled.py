"""Compiled dataplane properties: kernels == interpreter, per path.

The packet-at-a-time interpreter is the oracle for the compiled batch
kernels (:mod:`repro.sim.compiled`): every compiled run must be
bit-identical to the reference — results, core ids, per-core lifetime
counters — across the corpus NFs, both execution strategies,
adversarial workloads (collide / boundary / exhaust), warm and cold
caches, and steering-table churn.  ``sanitize=True`` must bypass the
kernels entirely, exactly as it bypasses the steering cache.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.compiled as compiled
from repro import obs
from repro.core.codegen import Strategy
from repro.core.pipeline import Maestro
from repro.fuzz.workloads import WorkloadSpec, materialize_workload
from repro.nf.api import NF, ActionKind, StateDecl, StateKind
from repro.nf.nfs import ALL_NFS
from repro.nf.nfs.firewall import Firewall
from repro.nf.packet import Packet
from repro.sim.batch import PacketBatch
from repro.obs.collect import MemoryCollector
from repro.sim.functional import FlowSteeringCache, run_functional
from repro.symbex.lower import LowerError

CORPUS = sorted(ALL_NFS)


@pytest.fixture()
def make_pair(analyses):
    """Two independently generated ParallelNFs off one shared analysis,
    so both sides steer with identical RSS keys."""

    def build(name, n_cores=4, strategy=None):
        def one():
            return analyses.maestro.parallelize(
                ALL_NFS[name](),
                n_cores=n_cores,
                result=analyses[name],
                strategy=strategy,
            )

        return one(), one()

    return build


def assert_runs_identical(run_ref, run_comp, par_ref, par_comp):
    assert list(run_ref.results) == list(run_comp.results)
    assert np.array_equal(run_ref.core_ids, run_comp.core_ids)
    assert np.array_equal(run_ref.action_codes, run_comp.action_codes)
    assert run_ref.action_counts() == run_comp.action_counts()
    for ref_core, comp_core in zip(par_ref.cores, par_comp.cores):
        assert ref_core.packets == comp_core.packets
        assert ref_core.reads == comp_core.reads
        assert ref_core.writes == comp_core.writes
        assert ref_core.new_flows == comp_core.new_flows


class TestPerPathIdentity:
    """Bit-identity holds for every compiled path individually, not just
    in aggregate: group packets by the kernel path that executed them and
    compare each group against the oracle."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_nf_per_path(self, make_pair, generator, name):
        trace, _ = generator.uniform_trace(
            1200, 90, in_port=0, reply_port=1, reply_fraction=0.35
        )
        par_ref, par_comp = make_pair(name)
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)

        pids = run_comp.compiled_path_ids
        assert pids.shape == (len(trace),)
        assert int((pids >= 0).sum()) == run_comp.compiled["kernel_packets"]
        ref_results = list(run_ref.results)
        comp_results = list(run_comp.results)
        for pid in np.unique(pids):
            idx = np.flatnonzero(pids == pid)
            assert [comp_results[i] for i in idx] == [
                ref_results[i] for i in idx
            ], f"{name}: divergence within path {pid}"

    def test_locks_strategy_per_path(self, make_pair, generator):
        trace, _ = generator.uniform_trace(
            800, 70, in_port=0, reply_port=1, reply_fraction=0.3
        )
        par_ref, par_comp = make_pair("fw", strategy=Strategy.LOCKS)
        assert par_comp.strategy is Strategy.LOCKS
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        pids = run_comp.compiled_path_ids
        assert int((pids >= 0).sum()) == run_comp.compiled["kernel_packets"]

    @pytest.mark.parametrize("name", CORPUS)
    def test_no_corpus_nf_is_all_fallback(self, make_pair, generator, name):
        """Every corpus NF must get at least one packet through a kernel;
        100% interpreter fallback means the compiler regressed."""
        trace, _ = generator.uniform_trace(
            600, 40, in_port=0, reply_port=1, reply_fraction=0.3
        )
        _, par_comp = make_pair(name)
        run = run_functional(par_comp, trace)
        assert run.compiled["coverage"] > 0.0, (
            f"{name}: compiled dataplane fell back for every packet"
        )


class TestAdversarialWorkloads:
    def test_collide_workload(self, make_pair):
        par_ref, par_comp = make_pair("fw")
        spec = WorkloadSpec("collide", 17, n_packets=900, n_flows=64)
        trace = materialize_workload(spec, rss=par_comp.rss)
        # Cold pass: every flow's first packet allocates, so the hazard
        # fixpoint demotes the whole (single-chunk) trace — identity must
        # hold even at 100% fallback.
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        # Warm pass: all flows exist, the rejuvenate path kernels, and
        # every colliding lane lands on one core in large groups.
        run_ref2 = run_functional(par_ref, trace, fastpath=False)
        run_comp2 = run_functional(par_comp, trace)
        assert_runs_identical(run_ref2, run_comp2, par_ref, par_comp)
        assert run_comp2.compiled["kernel_packets"] > 0

    def test_boundary_workload(self, make_pair):
        par_ref, par_comp = make_pair("policer")
        spec = WorkloadSpec("boundary", 23, n_packets=700, n_flows=48)
        trace = materialize_workload(spec, guard_values=(0, 1, 65535))
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)

    def test_exhaust_workload_tiny_capacity(self):
        """Capacity exhaustion: allocation failures are interpreter-only
        paths, so the run mixes kernels and fallbacks heavily — the seam
        between the two is where scatter bugs hide."""

        def build():
            return Maestro(seed=7).parallelize(
                Firewall(capacity=32), n_cores=4
            )

        par_ref, par_comp = build(), build()
        spec = WorkloadSpec("exhaust", 29, n_packets=800, n_flows=32)
        trace = materialize_workload(spec, min_capacity=32)
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        assert run_comp.compiled["fallback_packets"] > 0


class TestCacheTemperature:
    def test_warm_cache_runs_identical(self, make_pair, generator):
        """Three rounds over one trace with a shared steering cache: the
        uid memo and the whole-trace steering memo are both hot from
        round two on, and every round must still match a fresh oracle
        round on the same state evolution."""
        trace, _ = generator.uniform_trace(
            700, 60, in_port=0, reply_port=1, reply_fraction=0.3
        )
        par_ref, par_comp = make_pair("fw")
        cache = FlowSteeringCache(par_comp.rss)
        for round_no in range(3):
            run_ref = run_functional(par_ref, trace, fastpath=False)
            run_comp = run_functional(par_comp, trace, flow_cache=cache)
            assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        # The memo did real work by round three.
        disp = par_comp._compiled_dispatcher
        assert disp.memo_hits > 0

    def test_cold_vs_warm_same_results(self, make_pair, generator):
        trace, _ = generator.uniform_trace(500, 40, in_port=0)
        par_cold, par_warm = make_pair("nat")
        cache = FlowSteeringCache(par_warm.rss)
        cache.steer(trace)  # pre-warm steering without touching state
        run_cold = run_functional(par_cold, trace)
        run_warm = run_functional(par_warm, trace, flow_cache=cache)
        assert_runs_identical(run_cold, run_warm, par_cold, par_warm)


def shifted(trace, seconds):
    """The same packets, ``seconds`` later: a new call of known flows."""
    return [
        (port, replace(pkt, timestamp=pkt.timestamp + seconds))
        for port, pkt in trace
    ]


class TestFlowIdMemo:
    """The kernel memo is indexed by persistent per-port flow ids, and
    its epochs live across calls while the state versions hold."""

    def test_small_memo_cap_stays_identical(
        self, make_pair, generator, monkeypatch
    ):
        """With the id-table cap tiny, tables and epochs are dropped and
        rebuilt over and over; every call must still match the oracle.
        Calls carry changing subsets of the known flows, so ids issued
        after a drop name other flows than before it (nat rewrites per
        flow, so a stale epoch would show)."""
        monkeypatch.setattr(compiled, "_MEMO_MAX", 8)
        par_ref, par_comp = make_pair("nat", n_cores=8)
        cache = FlowSteeringCache(par_comp.rss)
        known = generator.make_flows(12)
        rng = np.random.default_rng(3)
        sizes = []
        for call in range(9):
            flows = known if call == 0 else [
                known[i] for i in sorted(rng.choice(12, 9, replace=False))
            ]
            if call % 4 == 3:
                flows = flows + generator.make_flows(6)
            trace = shifted(
                generator.trace(
                    300, flows, in_port=0, reply_port=1,
                    reply_fraction=0.3,
                ),
                0.25 * call,
            )
            run_ref = run_functional(par_ref, trace, fastpath=False)
            run_comp = run_functional(par_comp, trace, flow_cache=cache)
            assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
            sizes.append(len(par_comp._compiled_dispatcher._fids[0]))
        assert par_comp._compiled_dispatcher.memo_hits > 0
        # The cap was enforced: the table shrank back at least once.
        assert max(sizes) > 8
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_new_flows_reach_a_standing_epoch(self, make_pair, generator):
        """Replies of unknown flows change no state, so the WAN port's
        epochs outlive the call while new flow ids keep arriving."""
        par_ref, par_comp = make_pair("fw")
        cache = FlowSteeringCache(par_comp.rss)
        first, known = generator.uniform_trace(
            400, 20, in_port=0, reply_port=1, reply_fraction=0.3
        )
        calls = [first]
        for call in range(1, 5):
            # Fresh unknown flows every other call; the calls between
            # repeat the previous set, so the memo can answer them.
            if call % 2:
                flows = known + generator.make_flows(10)
            calls.append(shifted(
                [(1, port_pkt[1]) for port_pkt in generator.trace(
                    400, [f.inverted() for f in flows]
                )],
                0.1 * call,
            ))
        for trace in calls:
            run_ref = run_functional(par_ref, trace, fastpath=False)
            run_comp = run_functional(par_comp, trace, flow_cache=cache)
            assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        disp = par_comp._compiled_dispatcher
        assert disp.memo_hits > 0
        assert len(disp._fids[1]) > 20

    def test_out_of_range_fields_never_alias_packed_keys(self, make_pair):
        """A call carrying a value wider than its header field (here a
        17-bit source port) keys its flows field by field; those keys
        must never equal a packed key issued in another call.  With
        fw's fields packed as (dst_ip|dst_port, src_ip|src_port), ``z``
        below would otherwise take ``reply``'s flow id and memo entry."""
        _, par = make_pair("fw", n_cores=1)
        disp = compiled.compile_parallel(par)
        pp = disp.ports[1]
        q, s = 7, 9
        reply = Packet(src_ip=0, dst_ip=0, src_port=s, dst_port=q)
        wide = Packet(src_ip=5, dst_ip=6, src_port=2**17, dst_port=1)
        z = Packet(src_ip=q, dst_ip=0, src_port=s, dst_port=0)
        disp.start_run(PacketBatch([(1, reply)]), np.zeros(1, np.int64), 0)
        (reply_id,) = disp._plan_for(pp)
        disp.start_run(
            PacketBatch([(1, wide), (1, z), (1, reply)]),
            np.zeros(3, np.int64), 0,
        )
        ids = disp._plan_for(pp).tolist()
        assert len(set(ids)) == 3
        assert reply_id not in ids[:2]

    def test_equal_flows_share_results_across_calls(
        self, make_pair, generator
    ):
        """Contract (DESIGN §13): a memo epoch hands every packet of a
        flow the same PacketResult object, in this and later calls."""
        par_ref, par_comp = make_pair("nat")
        cache = FlowSteeringCache(par_comp.rss)
        base, _ = generator.uniform_trace(
            600, 30, in_port=0, reply_port=1, reply_fraction=0.3
        )
        runs = []
        for call in range(3):
            trace = shifted(base, 0.1 * call)
            run_ref = run_functional(par_ref, trace, fastpath=False)
            run_comp = run_functional(par_comp, trace, flow_cache=cache)
            assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
            runs.append(run_comp)
        second, third = runs[1], runs[2]
        shared = 0
        for i in range(len(base)):
            a, b = second.results[i][1], third.results[i][1]
            assert a == b  # equal flows, equal results across calls
            shared += a is b
        assert shared > 0
        # Rewrites are per flow: an object carrying mods is never handed
        # to a packet of another flow.
        owners: dict[int, set] = {}
        for (port, pkt), (_, r) in zip(base, third.results):
            if r.mods:
                owners.setdefault(id(r), set()).add(
                    (port, pkt.src_ip, pkt.dst_ip, pkt.src_port,
                     pkt.dst_port, pkt.proto)
                )
        assert owners
        assert all(len(flows) == 1 for flows in owners.values())


def build_three(factory, n_cores=4, seed=7):
    """Reference, compiled and ``kernels=False`` builds of one NF, all
    off one analysis (so all three steer with the same keys)."""
    maestro = Maestro(seed=seed)
    result = maestro.analyze(factory())
    return [
        maestro.parallelize(factory(), n_cores=n_cores, result=result)
        for _ in range(3)
    ]


def run_three(pars, trace, caches=None):
    """One call through the reference, the kernels and the interpreter
    fast path; all three must agree bit for bit.  Returns the compiled
    run."""
    par_ref, par_comp, par_fast = pars
    cache = caches[0] if caches else None
    run_ref = run_functional(par_ref, list(trace), fastpath=False)
    run_comp = run_functional(par_comp, list(trace), flow_cache=cache)
    run_fast = run_functional(par_fast, list(trace), kernels=False)
    assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
    assert_runs_identical(run_ref, run_fast, par_ref, par_fast)
    return run_comp


def alloc_pids(par):
    """Path ids of the supported programs that allocate (the lowered
    "table full" paths)."""
    disp = compiled.compile_parallel(par)
    return sorted(
        prog.pid
        for pp in disp.ports.values()
        for prog in pp.programs
        if prog.supported
        and any(isinstance(step, compiled._Alloc) for step in prog.steps)
    )


class _AllocOnlyNF(NF):
    """Allocates without storing the index, so its granted paths lower
    fully.  A LAN packet allocates twice (``_alloc_max`` must count both
    attempts); a source refused at its first attempt is remembered in a
    map that both ports read, so a wrongly decided outcome would hide
    that write from the kernel lanes."""

    name = "alloc_only"
    ports = {"lan": 0, "wan": 1}

    def state(self):
        return [
            StateDecl("ao_chain", StateKind.DCHAIN, 64),
            StateDecl("ao_refused", StateKind.MAP, 256),
        ]

    def process(self, ctx, port, pkt):
        if port == 0:
            refused, _ = ctx.map_get("ao_refused", (pkt.src_ip,))
            if ctx.cond(refused):
                ctx.drop()
            ok, _ = ctx.dchain_allocate("ao_chain")
            if ctx.cond(ctx.lnot(ok)):
                ctx.map_put("ao_refused", (pkt.src_ip,), 1)
                ctx.drop()
            ok, _ = ctx.dchain_allocate("ao_chain")
            if ctx.cond(ok):
                ctx.forward(1)
            ctx.drop()
        found, _ = ctx.map_get("ao_refused", (pkt.dst_ip,))
        if ctx.cond(found):
            ctx.drop()
        ctx.forward(0)


class TestAllocationOutcome:
    """``dchain_allocate`` lowers as a read of its outcome, decided per
    chunk and domain: exhausted chains fail every lane (kernel lanes),
    roomy chains grant every lane (interpreter lanes), anything else
    stops the program at the allocation as if it were not lowered."""

    def test_exhausted_lb_backend_table(self, generator):
        """lb's "backend table full" LAN path and the WAN lanes it used
        to demote run on kernels once its 64 backends are registered
        (120 sources heartbeat on the LAN port)."""
        pars = build_three(ALL_NFS["lb"])
        full = alloc_pids(pars[1])
        assert full
        cache = FlowSteeringCache(pars[1].rss)
        base, _ = generator.uniform_trace(
            1500, 120, in_port=0, reply_port=1, reply_fraction=0.3
        )
        runs = [
            run_three(pars, shifted(base, 0.1 * call), [cache])
            for call in range(3)
        ]
        last = runs[-1]
        assert np.isin(last.compiled_path_ids, full).any()
        assert last.compiled["coverage"] > 0.95
        assert pars[1]._compiled_dispatcher.memo_hits > 0

    @pytest.mark.parametrize("name", ["fw", "nat"])
    def test_exhausted_flow_table(self, generator, name):
        """fw forwards and nat drops on a full table; both now do it on
        kernels."""
        factory = {
            "fw": lambda: Firewall(capacity=64),
            "nat": lambda: ALL_NFS["nat"](capacity=64),
        }[name]
        pars = build_three(factory)
        full = alloc_pids(pars[1])
        assert full
        base, _ = generator.uniform_trace(
            1200, 150, in_port=0, reply_port=1, reply_fraction=0.3
        )
        runs = [run_three(pars, shifted(base, 0.1 * c)) for c in range(3)]
        assert np.isin(runs[-1].compiled_path_ids, full).any()
        if name == "nat":
            drops = runs[-1].action_counts().get(ActionKind.DROP, 0)
            assert drops > 0

    def test_boundary_sweep_frees_an_exhausted_chain(self, generator):
        """A chain is full for three calls, then the expiry sweep at the
        next call's first chunk frees slots: the memoized "full"
        classification must not outlive the ``alloc_version`` bump."""
        pars = build_three(
            lambda: Firewall(capacity=4, expiration_time=2.0), n_cores=1
        )
        full = alloc_pids(pars[1])
        holders, waiting = generator.make_flows(4), generator.make_flows(2)
        calls = [
            generator.trace(40, holders),
            shifted(generator.trace(40, waiting + holders), 0.5),
            shifted(generator.trace(40, waiting), 0.9),
            shifted(generator.trace(40, waiting), 3.0),
        ]
        cache = FlowSteeringCache(pars[1].rss)
        runs = [run_three(pars, trace, [cache]) for trace in calls]
        disp = pars[1]._compiled_dispatcher
        # Calls 2 and 3: the waiting flows hit the full table on kernels,
        # from the memo by call 3.
        assert np.isin(runs[1].compiled_path_ids, full).any()
        assert np.isin(runs[2].compiled_path_ids, full).all()
        assert disp.memo_hits > 0
        # Call 4: the sweep freed the holders' slots; the waiting flows
        # allocate on the interpreter instead of replaying "full".
        assert not np.isin(runs[3].compiled_path_ids, full).any()
        assert any(r.new_flow for _, r in runs[3].results)

    def test_roomy_then_undecided_then_exhausted(self, generator):
        """``ok=True`` lanes never run on a kernel, even on a fully
        lowered path.  Then a chunk with a free slot per lane but not
        per attempt: the outcome is undecided, and the refusals it makes
        must still demote the WAN lanes that read them."""
        pars = build_three(_AllocOnlyNF, n_cores=1)
        granted = [
            prog.pid
            for prog in compiled.compile_parallel(pars[1]).ports[0].programs
            if prog.supported and prog.kind is ActionKind.FORWARD
        ]
        assert granted
        flows = generator.make_flows(40)
        clock = iter(np.arange(1000) * 1e-6)

        def lan(i):
            return (0, flows[i].packet(64, next(clock)))

        def wan(i):
            return (1, flows[i].inverted().packet(64, next(clock)))

        # 64 free slots, 10 lanes of at most 2 attempts: all granted.
        run = run_three(pars, [lan(i) for i in range(10)])
        assert (run.compiled_path_ids == -1).all()
        assert all(r.new_flow for _, r in run.results)
        # 44 free slots for 44 lanes, 30 of which want 2: flows 32-39
        # are refused, and their replies later in the chunk must drop.
        run = run_three(
            pars,
            [lan(i) for i in range(10, 40)]
            + [wan(32 + i % 8) for i in range(14)],
        )
        assert run.action_counts()[ActionKind.DROP] >= 14
        # Exhausted: no LAN lane is granted, WAN lanes run on kernels.
        run = run_three(
            pars,
            [lan(i) for i in range(20)] + [wan(20 + i) for i in range(20)],
        )
        assert not np.isin(run.compiled_path_ids, granted).any()
        assert (run.compiled_path_ids[20:] >= 0).any()

    @pytest.mark.parametrize("capacity", [150, 60000])
    def test_allocations_demote_stale_flag_reads(self, generator, capacity):
        """nat replies to the external ports that new flows earlier in
        the same chunk allocate: whether the chain has room for every
        lane (60000) or not (150), the granted allocations must demote
        the replies' frozen "not allocated" flag reads."""
        pars = build_three(
            lambda: ALL_NFS["nat"](capacity=capacity), n_cores=1
        )
        flows = generator.make_flows(100)
        forward = [(0, f.packet(64, i * 1e-6)) for i, f in enumerate(flows)]
        replies = [
            (1, Packet(
                src_ip=f.dst_ip, dst_ip=1, src_port=f.dst_port,
                dst_port=1024 + i, proto=f.proto, timestamp=(100 + i) * 1e-6,
            ))
            for i, f in enumerate(flows)
        ]
        run = run_three(pars, forward + replies)
        assert run.action_counts()[ActionKind.FORWARD] == 200

    def test_undecided_chain_matches_the_unlowered_allocation(
        self, generator, monkeypatch
    ):
        """More lanes than free slots: every program stops at its
        allocation, so per-lane path ids equal those of a dispatcher
        built without lowering ``dchain_allocate`` at all."""
        base, _ = generator.uniform_trace(
            1500, 300, in_port=0, reply_port=1, reply_fraction=0.3
        )
        calls = [shifted(base, 0.1 * c) for c in range(3)]

        def path_ids(par):
            cache = FlowSteeringCache(par.rss)
            return [
                run_functional(par, trace, flow_cache=cache)
                .compiled_path_ids.copy()
                for trace in calls
            ]

        # 1024 slots per core: never full, never room for a whole chunk.
        factory = lambda: Firewall(capacity=1024)  # noqa: E731
        pars = build_three(factory, n_cores=1)
        run_three(pars, calls[0])
        lowered = path_ids(build_three(factory, n_cores=1)[1])

        real = compiled._lower_entry

        def unlowered(entries, idx, known, used):
            if entries[idx].op == "dchain_allocate":
                raise LowerError("allocation not lowered")
            return real(entries, idx, known, used)

        monkeypatch.setattr(compiled, "_lower_entry", unlowered)
        parent = path_ids(build_three(factory, n_cores=1)[1])
        for a, b in zip(lowered, parent):
            assert np.array_equal(a, b)
        assert any((a >= 0).any() for a in lowered)

    def test_rescale_with_exhausted_chains(self, generator):
        """A mid-trace grow and shrink while every shard's table is full
        (lb's LOCKS verdict rules out rescaling it, so fw stands in)."""
        from repro.scale import RescaleEvent, enable_elastic, run_elastic

        base, _ = generator.uniform_trace(
            900, 200, in_port=0, reply_port=1, reply_fraction=0.3
        )
        trace = base + shifted(base, 0.1)
        events = [RescaleEvent(700, 8), RescaleEvent(1300, 3)]
        runs = []
        for fastpath, kernels in ((False, False), (True, False), (True, True)):
            par = build_three(lambda: Firewall(capacity=64))[0]
            enable_elastic(par)
            out = run_elastic(
                par, trace, events, fastpath=fastpath, kernels=kernels
            )
            runs.append((list(out.results), out.run.core_ids.copy()))
        assert runs[0][0] == runs[1][0] == runs[2][0]
        assert np.array_equal(runs[0][1], runs[2][1])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0, 8, allow_nan=False), max_size=12),
    st.floats(-2, 8, allow_nan=False) | st.just(float("-inf")),
    st.integers(0, 12),
)
def test_first_due_matches_the_scalar_gate(times, last, j):
    """The expiry planner's jump equals a packet-by-packet scan of the
    interpreter's gate ``now - last_expiry >= 1.0``."""
    tsub = np.array(sorted(times), dtype=np.float64)
    j = min(j, tsub.size)
    expect = next(
        (k for k in range(j, tsub.size) if tsub[k] - last >= 1.0),
        tsub.size,
    )
    assert compiled._first_due(tsub, last, j) == expect
    # Rounding edges: a timestamp exactly one second (as computed in
    # floating point) after ``last``.
    edge = np.array([last + 1.0, np.nextafter(last + 1.0, -np.inf)])
    if np.isfinite(last):
        edge.sort()
        expect = next(
            (k for k in range(2) if edge[k] - last >= 1.0), 2
        )
        assert compiled._first_due(edge, last, 0) == expect


class TestSteeringGenerationInvalidation:
    """Satellite: a steering_generation bump must invalidate memoized
    path classifications, not just the flow->core cache."""

    def test_rebalance_flushes_kernel_memo_and_stays_identical(
        self, make_pair
    ):
        spec = WorkloadSpec("churn", 31, n_packets=1200, n_flows=80)
        trace = materialize_workload(spec)
        par_ref, par_comp = make_pair("fw")
        cache = FlowSteeringCache(par_comp.rss)

        run_functional(par_ref, trace, fastpath=False)
        run_functional(par_comp, trace, flow_cache=cache)
        disp = par_comp._compiled_dispatcher
        assert disp is not None
        inv_before = disp.memo_invalidations

        # Re-key mid-run: rebalance both sides' tables from the same
        # sample (balance_tables is deterministic given the sample), so
        # the oracle sees the same steering the compiled side does.
        par_ref.rss.balance_tables(trace)
        par_comp.rss.balance_tables(trace)
        assert par_ref.rss.steering_generation == (
            par_comp.rss.steering_generation
        )

        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace, flow_cache=cache)
        # The generation bump reached the dispatcher: memoized path
        # classifications were dropped, not replayed.
        assert disp.memo_invalidations > inv_before
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)


class TestSanitizeBypass:
    def test_sanitize_bypasses_kernels(self, make_pair, generator):
        """sanitize=True must not build, consult, or warm the compiled
        dispatcher — the checkers need the raw packet-at-a-time path."""
        trace, _ = generator.uniform_trace(400, 30, in_port=0)
        par_ref, par_san = make_pair("fw")
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_san = run_functional(
            par_san, trace, fastpath=True, kernels=True, sanitize=True
        )
        assert_runs_identical(run_ref, run_san, par_ref, par_san)
        # No kernel accounting on a sanitize run, and no dispatcher was
        # ever instantiated for it.
        assert not hasattr(run_san, "compiled")
        assert getattr(par_san, "_compiled_dispatcher", None) is None

    def test_sanitize_after_warm_kernels_leaves_counters_alone(
        self, make_pair, generator
    ):
        trace, _ = generator.uniform_trace(300, 25, in_port=0)
        _, par = make_pair("fw")
        run_functional(par, trace)  # warm: dispatcher now exists
        disp = par._compiled_dispatcher
        kernel_before = disp.kernel_packets
        fallback_before = disp.fallback_packets
        run_san = run_functional(par, trace, sanitize=True)
        assert not hasattr(run_san, "compiled")
        assert disp.kernel_packets == kernel_before
        assert disp.fallback_packets == fallback_before

    def test_kernels_false_uses_plain_fastpath(self, make_pair, generator):
        trace, _ = generator.uniform_trace(300, 25, in_port=0)
        par_ref, par_fast = make_pair("fw")
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_fast = run_functional(par_fast, trace, kernels=False)
        assert_runs_identical(run_ref, run_fast, par_ref, par_fast)
        assert not hasattr(run_fast, "compiled")


class TestObservability:
    def test_compiled_counters_exported(self, make_pair, generator):
        """A compiled run exports compiled.paths / hits / fallbacks to
        any attached collector; hits + fallbacks account for every
        packet in the trace."""
        trace, _ = generator.uniform_trace(400, 30, in_port=0)
        _, par = make_pair("fw")
        mem = MemoryCollector()
        with obs.attached(mem):
            run = run_functional(par, trace)
        assert hasattr(run, "compiled")
        assert mem.counter_total("compiled.paths") == run.compiled[
            "supported_paths"
        ]
        assert mem.counter_total("compiled.hits") == run.compiled[
            "kernel_packets"
        ]
        assert (
            mem.counter_total("compiled.hits")
            + mem.counter_total("compiled.fallbacks")
            == len(trace)
        )
