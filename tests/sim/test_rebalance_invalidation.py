"""Satellite: *dynamic* ``rebalance()`` must invalidate every consumer.

The static ``balance_tables`` path is covered in ``test_compiled.py``;
this suite pins the incremental RSS++ rebalancer (bounded entry moves on
a live table): one call must bump ``steering_generation`` and thereby
flush (a) the flow-steering cache and (b) the compiled dispatcher's
classification memo — and results must stay bit-identical to a
sequential oracle that saw the same re-steering.
"""

import numpy as np
import pytest

from repro.nf.nfs import ALL_NFS
from repro.sim.functional import FlowSteeringCache, run_functional


@pytest.fixture()
def make_pair(analyses):
    def build(name, n_cores=4):
        def one():
            return analyses.maestro.parallelize(
                ALL_NFS[name](), n_cores=n_cores, result=analyses[name]
            )

        return one(), one()

    return build


def skewed_loads(table):
    """Per-entry loads that pile onto one queue, forcing entry moves."""
    loads = np.ones(table.size, dtype=np.float64)
    hot_queue = int(table.entries[0])
    hot_slots = np.flatnonzero(table.entries == hot_queue)[:8]
    loads[hot_slots] = 1000.0
    return loads


def rebalance_all_ports(parallel):
    """Apply a deterministic dynamic rebalance to every port table."""
    moved = 0
    for config in parallel.rss.ports.values():
        moved += config.table.rebalance(skewed_loads(config.table))
    return moved


class TestGenerationBump:
    def test_dynamic_rebalance_bumps_generation(self, make_pair):
        _, parallel = make_pair("fw")
        gen = parallel.rss.steering_generation
        moved = rebalance_all_ports(parallel)
        assert moved > 0
        assert parallel.rss.steering_generation > gen

    def test_zero_move_rebalance_keeps_generation(self, make_pair):
        _, parallel = make_pair("fw")
        table = parallel.rss.port_config(0).table
        gen = parallel.rss.steering_generation
        # Perfectly uniform loads on a round-robin table: nothing to move.
        moved = table.rebalance(np.ones(table.size, dtype=np.float64))
        assert moved == 0
        assert parallel.rss.steering_generation == gen


class TestFlowCacheInvalidation:
    def test_rebalance_flushes_flow_steering_cache(self, make_pair, generator):
        _, parallel = make_pair("fw")
        trace, _ = generator.uniform_trace(400, 48, in_port=0)
        cache = FlowSteeringCache(parallel.rss)
        cache.steer(trace)
        assert len(cache) > 0
        inv_before = cache.stats()["invalidations"]
        assert rebalance_all_ports(parallel) > 0
        # The cache notices lazily, on its next use.
        cores_after = cache.steer(trace)
        assert cache.stats()["invalidations"] == inv_before + 1
        assert cache.stats()["generation"] == parallel.rss.steering_generation
        # And the refreshed decisions match the table's truth.
        assert np.array_equal(cores_after, parallel.rss.steer_trace(trace))


class TestCompiledMemoInvalidation:
    def test_rebalance_flushes_kernel_memo_and_stays_identical(
        self, make_pair, generator
    ):
        trace, _ = generator.uniform_trace(
            1000, 64, in_port=0, reply_port=1, reply_fraction=0.3
        )
        par_ref, par_comp = make_pair("fw")
        cache = FlowSteeringCache(par_comp.rss)

        run_functional(par_ref, trace, fastpath=False)
        run_functional(par_comp, trace, flow_cache=cache)
        disp = par_comp._compiled_dispatcher
        assert disp is not None
        inv_before = disp.memo_invalidations

        # Same dynamic rebalance on both sides (deterministic given the
        # same loads), so oracle and compiled steer identically after.
        assert rebalance_all_ports(par_ref) > 0
        assert rebalance_all_ports(par_comp) > 0
        assert (
            par_ref.rss.steering_generation
            == par_comp.rss.steering_generation
        )

        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace, flow_cache=cache)
        assert disp.memo_invalidations > inv_before
        assert list(run_ref.results) == list(run_comp.results)
        assert np.array_equal(run_ref.core_ids, run_comp.core_ids)

    def test_rebalance_flushes_flow_ids_and_epochs(self, make_pair, generator):
        """The bump drops the per-port flow-id tables and every memo
        epoch: ids restart from the next trace alone, and no epoch
        object survives into the re-steered run."""
        par_ref, par_comp = make_pair("fw")
        cache = FlowSteeringCache(par_comp.rss)
        first, _ = generator.uniform_trace(600, 50, in_port=0)
        second, flows = generator.uniform_trace(600, 40, in_port=0)
        for trace in (first, second):
            run_functional(par_ref, trace, fastpath=False)
            run_functional(par_comp, trace, flow_cache=cache)
        disp = par_comp._compiled_dispatcher
        assert len(disp._fids[0]) == 90  # ids persist across traces
        epochs_before = list(disp._epochs.values())  # kept alive
        assert epochs_before

        assert rebalance_all_ports(par_ref) > 0
        assert rebalance_all_ports(par_comp) > 0
        again = list(second)  # a new list: not a replay
        run_ref = run_functional(par_ref, again, fastpath=False)
        run_comp = run_functional(par_comp, again, flow_cache=cache)
        assert list(run_ref.results) == list(run_comp.results)
        assert np.array_equal(run_ref.core_ids, run_comp.core_ids)
        assert len(disp._fids[0]) == len(flows)
        assert disp._epochs
        assert not any(
            ep is old for ep in disp._epochs.values() for old in epochs_before
        )
