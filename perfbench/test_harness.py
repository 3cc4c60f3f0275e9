"""The span recorder's self-time accounting and the harness's regime guard."""

from __future__ import annotations

import time
import types

import pytest

from perfbench.spans import SpanRecorder
from perfbench.workloads import RegimeError, RegimeGuard
from perfbench.traffic import SteadyTraffic


class Base:
    def inherited(self, x):
        return x + 1


class Layer(Base):
    def work(self, n):
        time.sleep(0.002)
        return [self.leaf() for _ in range(n)]

    def leaf(self):
        time.sleep(0.001)
        return 1

    @classmethod
    def make(cls):
        return cls()


def test_self_times_add_up_to_the_root():
    rec = SpanRecorder()
    rec.register(Layer, "work", "work")
    rec.register(Layer, "leaf", "leaf")
    rec.attach()
    try:
        rec.call_id = 7
        with rec.span("root"):
            Layer().work(3)
    finally:
        rec.detach()
    totals = rec.totals({7})
    assert totals["leaf"]["count"] == 3
    assert totals["work"]["count"] == totals["root"]["count"] == 1
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(
        totals["root"]["dur_s"], rel=1e-9
    )
    assert totals["work"]["self_s"] >= 0.002
    assert totals["leaf"]["self_s"] >= 0.003
    assert rec.totals({8})["leaf"]["count"] == 0


def test_detach_restores_every_kind_of_attribute():
    module = types.ModuleType("module")
    module.fn = lambda: 5
    originals = (vars(Layer)["make"], Layer.work, module.fn)
    seen = []
    rec = SpanRecorder()
    rec.register(Layer, "make", "make")
    rec.register(Layer, "work", "work", on_enter=lambda *a: seen.append(a))
    rec.register(Layer, "inherited", "inherited")
    rec.register(module, "fn", "fn")
    rec.register(Layer, "missing", "missing")
    rec.attach()
    try:
        assert isinstance(Layer.make(), Layer)
        assert Layer().work(0) == []
        assert Layer().inherited(1) == 2
        assert module.fn() == 5
    finally:
        rec.detach()
    assert len(seen) == 1 and isinstance(seen[0][0], Layer)
    assert (vars(Layer)["make"], Layer.work, module.fn) == originals
    assert "inherited" not in vars(Layer)
    totals = rec.totals()
    assert totals["make"]["count"] == 1
    # Attributes not defined on the owner itself are not traced.
    assert "inherited" not in totals and "missing" not in totals


def test_span_is_a_noop_while_detached():
    rec = SpanRecorder()
    with rec.span("root"):
        pass
    assert len(rec.start) == 0


def test_guard_rejects_replay_stale_time_and_mutation():
    gen = SteadyTraffic(seed=1, n_flows=20)
    first = gen.call(10)
    guard = RegimeGuard()
    guard.admit("fw", first)
    with pytest.raises(RegimeError):
        guard.admit("fw", first)
    with pytest.raises(RegimeError):
        guard.admit("fw", list(first))
    second = gen.call(10)
    guard.admit("fw", second)
    guard.admit("nat", list(first))
    second.append(second[0])
    with pytest.raises(RegimeError):
        guard.finish()


def test_every_layer_entry_point_is_traced():
    # A renamed entry point would silently read zero in the traced run.
    from perfbench.workloads import _tracer

    names = {target[2] for target in _tracer(lambda *a: None)._targets}
    assert names == {
        "symbex.explore", "core.constraints", "core.rss_compile",
        "rs3.solve", "rs3.verify", "core.codegen", "sim.compile",
        "analysis.certify", "sim.run_functional", "sim.steer",
        "sim.start_run", "sim.chunk", "nf.interp",
    }
    assert len(_tracer(lambda *a: None)._targets) == 14
