"""Column snapshots and flow keys: ``repro.sim.batch`` and its users.

Steering and kernel classification key flows by packing header-field
columns into integer words (``pack_words``/``unique_words``) taken from
one :class:`PacketBatch` per call.  These tests pin:

* the helpers' exactness (equal keys iff equal rows, any word count);
* steering exactness against the scalar per-packet ``queue_for`` for
  option widths up to, across and beyond two 64-bit words, and the
  degenerate empty option, with hit/miss accounting against a set model;
* that a trace list edited in place between calls is never mistaken for
  a replay of the old one (kernels on and off, same and other length).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nf.nfs import ALL_NFS
from repro.nf.packet import Packet
from repro.rs3.config import RssConfiguration
from repro.rs3.fields import FieldSetOption, RssField
from repro.rs3.toeplitz import hash_input
from repro.sim.batch import PacketBatch, pack_words, unique_words
from repro.sim.functional import FlowSteeringCache, run_functional


class TestWords:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1), st.integers(0, 3),
                st.integers(-(2**63), 2**63 - 1),
            ),
            min_size=1, max_size=40,
        )
    )
    def test_keys_identify_rows(self, rows):
        cols = [np.array(c, dtype=np.int64) for c in zip(*rows)]
        words = pack_words(cols, [32, 2, 64])
        assert len(words) == 2  # 32 + 2 share a word, 64 takes its own
        keys, rep, inverse = unique_words(words)
        assert len(set(keys)) == len(keys) == len(set(rows))
        for i, row in enumerate(rows):
            assert rows[rep[inverse[i]]] == row
        for i, j in [(0, len(rows) - 1), (0, len(rows) // 2)]:
            assert (inverse[i] == inverse[j]) == (rows[i] == rows[j])

    def test_full_words_are_ranked_not_shifted(self):
        """Rows that differ only in the first word, with full 64-bit
        later words: a shift would overflow and merge them."""
        rng = np.random.default_rng(5)
        second = rng.integers(-(2**63), 2**63 - 1, 3)
        third = np.array([-1, 2**62], dtype=np.int64)
        rows = [(a, b, c) for a in (1, 2) for b in second for c in third]
        rows += rows[::3]
        cols = [np.array(c, dtype=np.int64) for c in zip(*rows)]
        keys, rep, inverse = unique_words(pack_words(cols, [64] * 3))
        assert len(keys) == 12
        for i, row in enumerate(rows):
            assert rows[rep[inverse[i]]] == row
        assert inverse[12:].tolist() == inverse[:12:3].tolist()

    def test_batch_columns_are_extracted_once(self):
        trace = [(i % 2, Packet(i, 2 * i, 3, 4, timestamp=i * 1e-6))
                 for i in range(10)]
        batch = PacketBatch(trace)
        col = batch.column("src_ip")
        assert batch.column("src_ip") is col
        assert col.tolist() == list(range(10))
        assert batch.ports.tolist() == [i % 2 for i in range(10)]
        assert batch.matches(trace)
        assert not batch.matches(list(trace))  # another list object
        trace[3] = (0, trace[3][1])
        assert not batch.matches(trace)
        assert batch.items[3][0] == 1  # the snapshot kept the old item


# ------------------------------------------------------------------ #
# Steering exactness
# ------------------------------------------------------------------ #
_F = RssField
#: Field options by hash-input width: 32, 64 (one word), 96 and 128
#: (two words), 144 and 192 (three words), and the empty option.
OPTIONS = {
    32: FieldSetOption("w32", (_F.SRC_PORT, _F.DST_PORT)),
    64: FieldSetOption("w64", (_F.SRC_IP, _F.DST_IP)),
    96: FieldSetOption("w96", (_F.SRC_IP, _F.DST_IP, _F.SRC_PORT,
                               _F.DST_PORT)),
    128: FieldSetOption("w128", (_F.SRC_IP, _F.DST_IP, _F.SRC_IP,
                                 _F.DST_IP)),
    144: FieldSetOption("w144", (_F.SRC_PORT, _F.SRC_IP, _F.DST_IP,
                                 _F.SRC_IP, _F.DST_IP)),
    192: FieldSetOption("w192", (_F.SRC_IP, _F.DST_IP) * 3),
    0: FieldSetOption("empty", ()),
}


def make_rss(widths, seed):
    rng = np.random.default_rng(seed)
    keys = {p: rng.bytes(52) for p in range(len(widths))}
    options = {p: OPTIONS[w] for p, w in enumerate(widths)}
    return RssConfiguration.build(keys, options, n_queues=5, reta_size=64)


packets = st.builds(
    Packet,
    src_ip=st.sampled_from([0, 1, 2**31, 2**32 - 1, 0x0A000001]),
    dst_ip=st.sampled_from([0, 7, 2**32 - 1]),
    src_port=st.sampled_from([0, 80, 2**16 - 1]),
    dst_port=st.sampled_from([0, 443]),
)


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.sampled_from(sorted(OPTIONS)), min_size=1,
                    max_size=3),
    calls=st.lists(
        st.lists(st.tuples(st.integers(0, 2), packets), max_size=30),
        min_size=1, max_size=3,
    ),
    seed=st.integers(0, 3),
)
def test_steer_matches_scalar_queue_for(widths, calls, seed):
    rss = make_rss(widths, seed)
    cache = FlowSteeringCache(rss)
    seen: set = set()  # reference model: (port, hash input) ever hashed
    hits = 0
    for call in calls:
        trace = [(port % len(widths), pkt) for port, pkt in call]
        cores, miss, slots = cache.steer(
            trace, with_misses=True, with_slots=True
        )
        expect_miss = []
        new = set()
        for (port, pkt), core, slot in zip(trace, cores, slots):
            config = rss.port_config(port)
            assert core == config.queue_for(pkt)
            assert slot == config.hash(pkt) & (config.table.size - 1)
            if not config.option.fields:
                # Degenerate option: nothing to cache, nothing counted.
                expect_miss.append(False)
                continue
            key = (port, hash_input(pkt, config.option))
            expect_miss.append(key not in seen)
            hits += key in seen
            new.add(key)
        seen |= new
        assert miss.tolist() == expect_miss
        assert (cache.hits, cache.misses) == (hits, len(seen))
        assert len(cache) == len(seen)
        # Replaying the same list: the whole-trace memo answers, with
        # every packet a hit and the same decisions in every output.
        again = cache.steer(trace)
        again_miss, again_slots = cache.steer(
            trace, with_misses=True, with_slots=True
        )[1:]
        hits += 2 * len(trace)
        assert np.array_equal(again, cores)
        assert not again_miss.any()
        assert np.array_equal(again_slots, slots)
        assert (cache.hits, cache.misses) == (hits, len(seen))


# ------------------------------------------------------------------ #
# In-place trace mutation between calls
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("kernels", [True, False])
@pytest.mark.parametrize("other_len", [4096, 3000])
def test_trace_edited_in_place_is_not_a_replay(
    analyses, generator, kernels, other_len
):
    """``tr[:] = other`` keeps the list object; the steering memo and
    the dispatcher must still see the new packets, not the old ones."""

    def build():
        return analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=8, result=analyses["fw"]
        )

    first, _ = generator.uniform_trace(
        4096, 300, in_port=0, reply_port=1, reply_fraction=0.3
    )
    other, _ = generator.uniform_trace(
        other_len, 300, in_port=0, reply_port=1, reply_fraction=0.3
    )
    par, par_ref = build(), build()
    cache = FlowSteeringCache(par.rss)
    trace = list(first)
    run_functional(par, trace, flow_cache=cache, kernels=kernels)
    run_functional(par_ref, list(first), fastpath=False)
    trace[:] = other
    run = run_functional(par, trace, flow_cache=cache, kernels=kernels)
    ref = run_functional(par_ref, list(other), fastpath=False)
    assert run.n_packets == other_len
    assert np.array_equal(run.core_ids, ref.core_ids)
    assert list(run.results) == list(ref.results)
