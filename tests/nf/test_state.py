"""The Table 1 data structures: map, vector, dchain, sketch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StateModelError
from repro.nf.state import DChain, Map, Sketch, Vector, expire_flows


class TestMap:
    def test_get_miss(self):
        assert Map(4).get(("k",)) == (False, 0)

    def test_put_get_roundtrip(self):
        m = Map(4)
        assert m.put(("k",), 7)
        assert m.get(("k",)) == (True, 7)

    def test_capacity_enforced_for_new_keys(self):
        m = Map(2)
        assert m.put("a", 1) and m.put("b", 2)
        assert not m.put("c", 3)

    def test_update_allowed_at_capacity(self):
        m = Map(1)
        assert m.put("a", 1)
        assert m.put("a", 2)
        assert m.get("a") == (True, 2)

    def test_erase(self):
        m = Map(2)
        m.put("a", 1)
        assert m.erase("a")
        assert not m.erase("a")
        assert m.get("a") == (False, 0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(StateModelError):
            Map(0)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers()), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_matches_dict_semantics_under_capacity(self, ops):
        m = Map(1000)
        reference: dict = {}
        for key, value in ops:
            m.put(key, value)
            reference[key] = value
        for key, value in reference.items():
            assert m.get(key) == (True, value)


class TestVector:
    def test_layout_initialized(self):
        v = Vector(3, initial={"x": 0})
        assert v.borrow(0) == {"x": 0}

    def test_put_borrow(self):
        v = Vector(3)
        v.put(1, {"x": 9})
        assert v.borrow(1) == {"x": 9}

    def test_borrow_returns_copy(self):
        v = Vector(2, initial={"x": 1})
        record = v.borrow(0)
        record["x"] = 99
        assert v.borrow(0) == {"x": 1}

    def test_out_of_range(self):
        v = Vector(2)
        with pytest.raises(StateModelError):
            v.borrow(2)
        with pytest.raises(StateModelError):
            v.put(-1, {})


class TestDChain:
    def test_allocates_distinct_indices(self):
        chain = DChain(8)
        indices = [chain.allocate(0.0)[1] for _ in range(8)]
        assert sorted(indices) == list(range(8))

    def test_exhaustion(self):
        chain = DChain(2)
        chain.allocate(0.0)
        chain.allocate(0.0)
        assert chain.allocate(0.0) == (False, 0)

    def test_free_and_reallocate(self):
        chain = DChain(1)
        _, index = chain.allocate(0.0)
        assert chain.free_index(index)
        ok, again = chain.allocate(1.0)
        assert ok and again == index

    def test_rejuvenate_refreshes(self):
        chain = DChain(2)
        _, index = chain.allocate(0.0)
        assert chain.rejuvenate(index, 5.0)
        assert chain.last_touched(index) == 5.0

    def test_rejuvenate_unallocated_fails(self):
        assert not DChain(2).rejuvenate(0, 1.0)

    def test_expire_frees_only_stale(self):
        chain = DChain(4)
        _, old = chain.allocate(0.0)
        _, fresh = chain.allocate(10.0)
        expired = chain.expire(threshold=5.0)
        assert expired == [old]
        assert not chain.is_allocated(old)
        assert chain.is_allocated(fresh)

    @given(st.lists(st.sampled_from(["alloc", "free", "expire"]), max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_never_double_allocates(self, ops):
        chain = DChain(8)
        live: set[int] = set()
        now = 0.0
        for op in ops:
            now += 1.0
            if op == "alloc":
                ok, index = chain.allocate(now)
                if ok:
                    assert index not in live
                    live.add(index)
            elif op == "free" and live:
                index = live.pop()
                assert chain.free_index(index)
            elif op == "expire":
                for index in chain.expire(now - 10):
                    live.discard(index)
        assert chain.allocated_count() == len(live)


class _EagerChain:
    """Reference allocator: one slot per index, built up front.

    The straightforward dchain semantics the lazy :class:`DChain` must
    reproduce exactly: a free stack seeded so index 0 pops first, LIFO
    reuse, and an ascending full-capacity scan on expiry.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.allocated = [False] * capacity
        self.touched = [0.0] * capacity
        self.free = list(range(capacity - 1, -1, -1))

    def allocate(self, now: float) -> tuple[bool, int]:
        if not self.free:
            return False, 0
        index = self.free.pop()
        self.allocated[index] = True
        self.touched[index] = now
        return True, index

    def is_allocated(self, index: int) -> bool:
        return 0 <= index < self.capacity and self.allocated[index]

    def rejuvenate(self, index: int, now: float) -> bool:
        if not self.is_allocated(index):
            return False
        self.touched[index] = now
        return True

    def free_index(self, index: int) -> bool:
        if not self.is_allocated(index):
            return False
        self.allocated[index] = False
        self.free.append(index)
        return True

    def expire(self, threshold: float) -> list[int]:
        expired = [
            i for i in range(self.capacity)
            if self.allocated[i] and self.touched[i] < threshold
        ]
        for index in expired:
            self.free_index(index)
        return expired


_CHAIN_OPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "free", "rejuv", "expire"]),
        st.integers(-2, 9),
        st.floats(0.0, 4.0),
    ),
    max_size=120,
)


class TestDChainMatchesEagerModel:
    @given(_CHAIN_OPS)
    @settings(max_examples=150, deadline=None)
    def test_random_sequences(self, ops):
        capacity = 8
        chain, model = DChain(capacity), _EagerChain(capacity)
        now = 0.0
        for op, index, dt in ops:
            now += dt
            if op == "alloc":
                assert chain.allocate(now) == model.allocate(now)
            elif op == "free":
                assert chain.free_index(index) == model.free_index(index)
            elif op == "rejuv":
                assert chain.rejuvenate(index, now) == model.rejuvenate(index, now)
            else:
                expired = chain.expire(now - 3.0)
                assert expired == model.expire(now - 3.0)
                assert expired == sorted(expired)
            assert chain.allocated_count() == capacity - len(model.free)
            for i in range(-2, capacity + 2):
                assert chain.is_allocated(i) == model.is_allocated(i)
            for i in range(capacity):
                if model.allocated[i]:
                    assert chain.last_touched(i) == model.touched[i]
            cells = np.arange(-2, capacity + 2)
            assert chain.allocated_mask(cells).tolist() == [
                model.is_allocated(int(c)) for c in cells
            ]

    def test_lifo_reuse(self):
        chain = DChain(8)
        for _ in range(5):
            chain.allocate(0.0)
        chain.free_index(1)
        chain.free_index(3)
        assert [chain.allocate(1.0)[1] for _ in range(4)] == [3, 1, 5, 6]

    def test_exhaustion_at_capacity_after_reuse(self):
        chain = DChain(3)
        for _ in range(3):
            assert chain.allocate(0.0)[0]
        assert chain.allocate(0.0) == (False, 0)
        chain.free_index(0)
        assert chain.allocate(1.0) == (True, 0)
        assert chain.allocate(1.0) == (False, 0)
        assert chain.allocated_count() == 3

    def test_out_of_range_is_not_allocated(self):
        chain = DChain(4)
        chain.allocate(0.0)
        for index in (-1, 4, 10**9):
            assert not chain.is_allocated(index)
            assert not chain.rejuvenate(index, 1.0)
            assert not chain.free_index(index)

    def test_touch_many_sets_last_touched(self):
        chain = DChain(4)
        for _ in range(3):
            chain.allocate(0.0)
        chain.touch_many([2, 0], [7.0, 5.0])
        assert [chain.last_touched(i) for i in range(3)] == [5.0, 0.0, 7.0]
        assert chain.expire(6.0) == [0, 1]


class TestVectorLazyRows:
    def test_unwritten_row_borrows_template_copy(self):
        v = Vector(1000, initial={"x": 3, "y": 4})
        row = v.borrow(999)
        assert row == {"x": 3, "y": 4}
        row["x"] = 99
        assert v.borrow(999) == {"x": 3, "y": 4}
        assert v.borrow(0) == {"x": 3, "y": 4}

    def test_put_copies_record(self):
        v = Vector(4, initial={"x": 0})
        record = {"x": 1}
        v.put(2, record)
        record["x"] = 2
        assert v.borrow(2) == {"x": 1}
        v.borrow(2)["x"] = 5
        assert v.borrow(2) == {"x": 1}
        assert v.borrow(1) == {"x": 0}

    def test_reset_after_put_restores_template_and_bumps_version(self):
        v = Vector(4, initial={"x": 0})
        v.put(1, {"x": 9})
        before = v.version
        v.reset(1)
        assert v.borrow(1) == {"x": 0}
        assert v.version == before + 1
        v.reset(2)  # never written: still a mutation for memo validity
        assert v.version == before + 2
        assert v.borrow(2) == {"x": 0}

    def test_rows_reads_written_and_template_rows(self):
        v = Vector(4, initial={"x": 0})
        v.put(3, {"x": 7})
        assert v.rows([3, 0, 3]) == [{"x": 7}, {"x": 0}, {"x": 7}]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "reset", "borrow"]),
                st.integers(0, 5),
                st.integers(-5, 5),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_eager_rows(self, ops):
        template = {"x": 0, "y": 1}
        v = Vector(6, initial=template)
        model = [dict(template) for _ in range(6)]
        version = 0
        for op, index, value in ops:
            if op == "put":
                v.put(index, {"x": value, "y": -value})
                model[index] = {"x": value, "y": -value}
                version += 1
            elif op == "reset":
                v.reset(index)
                model[index] = dict(template)
                version += 1
            else:
                v.borrow(index)["x"] = 1234
            assert v.version == version
        assert [v.borrow(i) for i in range(6)] == model
        assert template == {"x": 0, "y": 1}


class TestMapLookupMany:
    def test_hits_and_misses(self):
        m = Map(4)
        m.put(("a",), 1)
        m.put(("b",), 0)
        assert m.lookup_many([("b",), ("z",), ("a",)]) == [0, None, 1]


class TestSketch:
    def test_initial_count_zero(self):
        assert Sketch(64).fetch(("a",)) == 0

    def test_touch_increments(self):
        sketch = Sketch(64)
        for _ in range(5):
            sketch.touch(("a",))
        assert sketch.fetch(("a",)) >= 5

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_never_undercounts(self, keys):
        sketch = Sketch(256, depth=5)
        true_counts: dict[int, int] = {}
        for key in keys:
            sketch.touch(key)
            true_counts[key] = true_counts.get(key, 0) + 1
        for key, count in true_counts.items():
            assert sketch.fetch(key) >= count

    def test_reset(self):
        sketch = Sketch(64)
        sketch.touch("a", amount=3)
        sketch.reset()
        assert sketch.fetch("a") == 0

    def test_depth_default_matches_paper(self):
        # "indexing a configurable number of entries based on different
        # hashes (5 by default in our case)" (§6.1, CL)
        assert Sketch(100).depth == 5


class TestExpireFlows:
    def test_triad_expiry(self):
        flow_map, chain, vector = Map(4), DChain(4), Vector(4)
        index_to_key = {}
        for i, key in enumerate(["a", "b"]):
            _, index = chain.allocate(float(i))
            flow_map.put(key, index)
            index_to_key[index] = key
        expired = expire_flows(flow_map, chain, vector, index_to_key, threshold=0.5)
        assert expired == 1
        assert flow_map.get("a") == (False, 0)
        assert flow_map.get("b")[0]
