"""RS3 key solver: cancellation, mapping, symmetry, quality, verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Maestro
from repro.errors import RssUnsatisfiableError
from repro.nf.nfs import ALL_NFS
from repro.rs3.fields import E810, IPV4_ONLY, IPV4_TCP, PERMISSIVE_NIC, RssField
from repro.rs3.indirection import IndirectionTable
from repro.rs3.solver import CancelField, KeySearchStats, MapFields, RssKeySolver
from repro.rs3.toeplitz import toeplitz_hash


@pytest.fixture()
def rng():
    return np.random.default_rng(77)


def two_port_solver(**kwargs) -> RssKeySolver:
    return RssKeySolver(E810, {0: IPV4_TCP, 1: IPV4_TCP}, **kwargs)


def set_field(data: bytearray, field: RssField, value: int) -> None:
    offset = IPV4_TCP.offsets()[field] // 8
    width = field.width // 8
    data[offset : offset + width] = value.to_bytes(width, "big")


class TestCancellation:
    def test_cancelled_field_has_no_influence(self, rng):
        solver = two_port_solver()
        reqs = [CancelField(0, RssField.SRC_PORT)]
        keys = solver.solve(reqs, rng=rng)
        base = bytearray(rng.bytes(12))
        flipped = bytearray(base)
        set_field(flipped, RssField.SRC_PORT, 0x1234)
        # Cancellation is scoped to the indirection-index bits (see
        # RssKeySolver.build_system): the queue must not change.
        mask = E810.reta_size - 1
        assert toeplitz_hash(keys[0], bytes(base)) & mask == (
            toeplitz_hash(keys[0], bytes(flipped)) & mask
        )

    def test_non_cancelled_field_still_matters(self, rng):
        solver = two_port_solver()
        keys = solver.solve([CancelField(0, RssField.SRC_PORT)], rng=rng)
        collisions = 0
        for _ in range(64):
            base = bytearray(rng.bytes(12))
            flipped = bytearray(base)
            set_field(flipped, RssField.DST_IP, int(rng.integers(0, 2**32)))
            if toeplitz_hash(keys[0], bytes(base)) == toeplitz_hash(
                keys[0], bytes(flipped)
            ):
                collisions += 1
        assert collisions < 8

    def test_cancelling_everything_unsatisfiable(self, rng):
        solver = two_port_solver()
        reqs = [
            CancelField(port, field)
            for port in (0, 1)
            for field in RssField
        ]
        with pytest.raises(RssUnsatisfiableError):
            solver.solve(reqs, rng=rng)


class TestMapping:
    def test_cross_port_symmetry(self, rng):
        solver = two_port_solver()
        reqs = [
            MapFields(0, RssField.SRC_IP, 1, RssField.DST_IP),
            MapFields(0, RssField.DST_IP, 1, RssField.SRC_IP),
            MapFields(0, RssField.SRC_PORT, 1, RssField.DST_PORT),
            MapFields(0, RssField.DST_PORT, 1, RssField.SRC_PORT),
        ]
        keys = solver.solve(reqs, rng=rng)
        solver.verify(reqs, keys, rng=rng, samples=128)

    def test_same_port_woo_park_symmetry(self, rng):
        solver = RssKeySolver(E810, {0: IPV4_TCP})
        reqs = [
            MapFields(0, RssField.SRC_IP, 0, RssField.DST_IP),
            MapFields(0, RssField.DST_IP, 0, RssField.SRC_IP),
            MapFields(0, RssField.SRC_PORT, 0, RssField.DST_PORT),
            MapFields(0, RssField.DST_PORT, 0, RssField.SRC_PORT),
        ]
        keys = solver.solve(reqs, rng=rng)
        solver.verify(reqs, keys, rng=rng, samples=128)
        # The structure the constraints force (cf. Woo & Park [74]): the
        # IP region of the key is 32-bit periodic and the port region is
        # 16-bit periodic.
        from repro.rs3.toeplitz import key_bit

        key = keys[0]
        for i in range(63):
            assert key_bit(key, i) == key_bit(key, i + 32)
        for i in range(64, 111):
            assert key_bit(key, i) == key_bit(key, i + 16)

    def test_width_mismatch_rejected(self):
        with pytest.raises(RssUnsatisfiableError):
            MapFields(0, RssField.SRC_IP, 1, RssField.SRC_PORT)

    def test_verify_catches_bad_keys(self, rng):
        solver = two_port_solver()
        reqs = [MapFields(0, RssField.SRC_IP, 1, RssField.DST_IP),
                MapFields(0, RssField.DST_IP, 1, RssField.SRC_IP),
                MapFields(0, RssField.SRC_PORT, 1, RssField.DST_PORT),
                MapFields(0, RssField.DST_PORT, 1, RssField.SRC_PORT)]
        bad_keys = {0: rng.bytes(52), 1: rng.bytes(52)}
        with pytest.raises(RssUnsatisfiableError):
            solver.verify(reqs, bad_keys, rng=rng, samples=64)


class TestQualityLoop:
    def test_stats_recorded(self, rng):
        solver = two_port_solver()
        stats = KeySearchStats()
        solver.solve([CancelField(0, RssField.SRC_PORT)], rng=rng, stats=stats)
        assert stats.attempts >= 1
        # 16 cancelled input positions x 9 table-index window offsets.
        assert stats.constraint_rows == 16 * 9
        assert stats.free_bits > 0

    def test_keys_distribute_traffic(self, rng):
        """The §4 acceptance criterion: no degenerate keys escape."""
        from repro.rs3.indirection import IndirectionTable

        solver = two_port_solver(n_queues=16)
        keys = solver.solve([], rng=rng)
        table = IndirectionTable(16)
        counts = np.zeros(16)
        for _ in range(2000):
            counts[table.lookup(toeplitz_hash(keys[0], rng.bytes(12)))] += 1
        assert counts.max() / counts.sum() < 2.0 / 16

    def test_unconstrained_keys_differ_per_port(self, rng):
        keys = two_port_solver().solve([], rng=rng)
        assert keys[0] != keys[1]


_NAT_KEYS: dict[int, bytes] = {}


def _nat_style_keys() -> dict[int, bytes]:
    if not _NAT_KEYS:
        reqs = [
            CancelField(0, RssField.SRC_IP),
            CancelField(0, RssField.SRC_PORT),
            CancelField(1, RssField.DST_IP),
            CancelField(1, RssField.DST_PORT),
            MapFields(0, RssField.DST_IP, 1, RssField.SRC_IP),
            MapFields(0, RssField.DST_PORT, 1, RssField.SRC_PORT),
        ]
        _NAT_KEYS.update(
            two_port_solver().solve(reqs, rng=np.random.default_rng(5))
        )
    return _NAT_KEYS


class TestHypothesisMapping:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nat_style_requirements_hold(self, ip_value, port_value):
        rng = np.random.default_rng(5)
        keys = _nat_style_keys()
        lan = bytearray(rng.bytes(12))
        set_field(lan, RssField.DST_IP, ip_value)
        set_field(lan, RssField.DST_PORT, port_value)
        wan = bytearray(rng.bytes(12))
        set_field(wan, RssField.SRC_IP, ip_value)
        set_field(wan, RssField.SRC_PORT, port_value)
        mask = E810.reta_size - 1
        assert toeplitz_hash(keys[0], bytes(lan)) & mask == (
            toeplitz_hash(keys[1], bytes(wan)) & mask
        )


#: Per-port keys of every corpus NF, each analysed by a fresh
#: ``Maestro(seed=...)``.  Batching the key-quality check must not move
#: the random stream: any drift changes these.
PINNED_KEYS: dict[int, dict[str, tuple[str, str]]] = {
    1: {
        "nop": (
            "cd5daebfaa1023a2732033df506b22205c481cfc8566686d31a7"
            "4fba702121e263a7effb84b5d20201110f7609311757aa7ba711",
            "f4dd6e6e4b7195c29016bd25e7700c9bd9d31e2081d81750cd21"
            "d72be9263f98d3e031a8443c0bbe10d494ba94851087552415a7",
        ),
        "policer": (
            "cd5daebfaa1023a2732033df506b22205c481cfc8566686d31a7"
            "4fba702121e263a7effb84b5d20201110f7609311757aa7ba711",
            "f4dd6e00000000006e4b70000000000195c29016bd25e7700c9b"
            "d9d31e2081d81750cd21d72be9263f98d3e031a8443c0bbe10d4",
        ),
        "sbridge": (
            "cd5daebfaa1023a2732033df506b22205c481cfc8566686d31a7"
            "4fba702121e263a7effb84b5d20201110f7609311757aa7ba711",
            "f4dd6e6e4b7195c29016bd25e7700c9bd9d31e2081d81750cd21"
            "d72be9263f98d3e031a8443c0bbe10d494ba94851087552415a7",
        ),
        "dbridge": (
            "cd5daebfaa1023a2732033df506b22205c481cfc8566686d31a7"
            "4fba702121e263a7effb84b5d20201110f7609311757aa7ba711",
            "f4dd6e6e4b7195c29016bd25e7700c9bd9d31e2081d81750cd21"
            "d72be9263f98d3e031a8443c0bbe10d494ba94851087552415a7",
        ),
        "fw": (
            "20204b5c4b5d202020204b5d20204b5d9abb5d7f54204744e640"
            "67bea0d64440b89039f90accd0da634e9f74e04243c4c74fdff7",
            "4b5d202020204b5c4b5d20204b5d20201110f7609311757aa7ba"
            "711f4dd6e6e4b7195c29016bd25e7700c9bd9d31e2081d81750c",
        ),
        "psd": (
            "cd5daebfaa1022000000000000000001a2732033df506b22205c"
            "481cfc8566686d31a74fba702121e263a7effb84b5d20201110f",
            "7609311757aa7ba711f4dd6e6e4b7195c29016bd25e7700c9bd9"
            "d31e2081d81750cd21d72be9263f98d3e031a8443c0bbe10d494",
        ),
        "nat": (
            "cd5dae00000000000402000000004400bfaa1023a2732033df50"
            "6b22205c481cfc8566686d31a74fba702121e263a7effb84b5d2",
            "000000000402000000000000440000003dd824c45d5ea9ee9c47"
            "d375b9b92dc6570a405af4979dc0326f674c788207605d433487",
        ),
        "lb": (
            "cd5daebfaa1023a2732033df506b22205c481cfc8566686d31a7"
            "4fba702121e263a7effb84b5d20201110f7609311757aa7ba711",
            "f4dd6e6e4b7195c29016bd25e7700c9bd9d31e2081d81750cd21"
            "d72be9263f98d3e031a8443c0bbe10d494ba94851087552415a7",
        ),
        "cl": (
            "12d748000804440012d74800000000019abb5d7f54204744e640"
            "67bea0d64440b89039f90accd0da634e9f74e04243c4c74fdff7",
            "0804440012d7480008044400000000003dd824c45d5ea9ee9c47"
            "d375b9b92dc6570a405af4979dc0326f674c788207605d433487",
        ),
    },
    7: {
        "nop": (
            "b99f531a0e2b70a92d0e568c90f641db13379101c85c734c688f"
            "90bf3d2b8840dce051b47e0611fe32996fff176788ebd339b475",
            "e8141e202fe01b8527c51d72b2604816e7b4a7ea87afde952b11"
            "7324d8136924a5519b20b860b2d55a75c005c05c32d48b69de4d",
        ),
        "policer": (
            "b99f531a0e2b70a92d0e568c90f641db13379101c85c734c688f"
            "90bf3d2b8840dce051b47e0611fe32996fff176788ebd339b475",
            "e8141e0000000000202fe000000000001b8527c51d72b2604816"
            "e7b4a7ea87afde952b117324d8136924a5519b20b860b2d55a75",
        ),
        "sbridge": (
            "b99f531a0e2b70a92d0e568c90f641db13379101c85c734c688f"
            "90bf3d2b8840dce051b47e0611fe32996fff176788ebd339b475",
            "e8141e202fe01b8527c51d72b2604816e7b4a7ea87afde952b11"
            "7324d8136924a5519b20b860b2d55a75c005c05c32d48b69de4d",
        ),
        "dbridge": (
            "b99f531a0e2b70a92d0e568c90f641db13379101c85c734c688f"
            "90bf3d2b8840dce051b47e0611fe32996fff176788ebd339b475",
            "e8141e202fe01b8527c51d72b2604816e7b4a7ea87afde952b11"
            "7324d8136924a5519b20b860b2d55a75c005c05c32d48b69de4d",
        ),
        "fw": (
            "1fe3e061e0611fe31fe3e0611fe3e061733ea6341c56e1525a1c"
            "ad1921ec83b6266f220390b8e698d11f217e7a571081b9c0a368",
            "e0611fe31fe3e061e0611fe3e0611fe32996fff176788ebd339b"
            "475e8141e202fe01b8527c51d72b2604816e7b4a7ea87afde952",
        ),
        "psd": (
            "b99f531a0e2b70000000000000000000a92d0e568c90f641db13"
            "379101c85c734c688f90bf3d2b8840dce051b47e0611fe32996f",
            "ff176788ebd339b475e8141e202fe01b8527c51d72b2604816e7"
            "b4a7ea87afde952b117324d8136924a5519b20b860b2d55a75c0",
        ),
        "nat": (
            "b99f520000000001fc650000000064011a0e2b70a92d0e568c90"
            "f641db13379101c85c734c688f90bf3d2b8840dce051b47e0611",
            "00000001fc6500000000000064000001bffc5d9e23af4ce6d1d7"
            "a0507880bf806e149f1475cac981205b9ed29faa1ebf7a54ac45",
        ),
        "lb": (
            "b99f531a0e2b70a92d0e568c90f641db13379101c85c734c688f"
            "90bf3d2b8840dce051b47e0611fe32996fff176788ebd339b475",
            "e8141e202fe01b8527c51d72b2604816e7b4a7ea87afde952b11"
            "7324d8136924a5519b20b860b2d55a75c005c05c32d48b69de4d",
        ),
        "cl": (
            "f8184601f8ca6401f818460000000001733ea6341c56e1525a1c"
            "ad1921ec83b6266f220390b8e698d11f217e7a571081b9c0a368",
            "f8ca6401f8184601f8ca640000000001bffc5d9e23af4ce6d1d7"
            "a0507880bf806e149f1475cac981205b9ed29faa1ebf7a54ac45",
        ),
    },
}


def _scalar_distribution_ok(solver, keys, requirements, rng) -> bool:
    """The key-quality check one sample and one field at a time."""
    table = IndirectionTable(solver.n_queues, size=solver.nic.reta_size)
    for port in solver.ports:
        option = solver.port_options[port]
        cancelled = {
            r.field for r in requirements
            if isinstance(r, CancelField) and r.port == port
        }
        active = [f for f in option.fields if f not in cancelled]
        if not active:
            continue
        counts = np.zeros(solver.n_queues, dtype=np.int64)
        for _ in range(solver.quality_samples):
            data = bytearray(option.input_bytes)
            for fld in active:
                start = option.offsets()[fld] // 8
                data[start : start + fld.width // 8] = rng.bytes(fld.width // 8)
            counts[table.lookup(toeplitz_hash(keys[port], bytes(data)))] += 1
        if counts.max() / max(1, counts.sum()) > solver.quality_factor / solver.n_queues:
            return False
    return True


class TestQualityCheckStream:
    @pytest.mark.parametrize("seed", sorted(PINNED_KEYS))
    def test_corpus_keys_pinned(self, seed):
        for name, cls in ALL_NFS.items():
            keys = Maestro(seed=seed).analyze(cls()).keys
            assert (keys[0].hex(), keys[1].hex()) == PINNED_KEYS[seed][name], name

    def test_first_bit_only_key_rejected(self):
        # §4: "only the first bit set" yields two possible hashes.
        key = bytes([0x80]) + bytes(51)
        solver = two_port_solver()
        assert not solver._distribution_ok(
            {0: key, 1: key}, [], np.random.default_rng(0)
        )

    def test_solve_exhausts_attempts_when_every_key_is_rejected(self, rng):
        # A single queue share can never be below 1/n_queues.
        solver = two_port_solver(quality_factor=0.5, quality_samples=32)
        stats = KeySearchStats()
        with pytest.raises(RssUnsatisfiableError, match="distributed"):
            solver.solve([], rng=rng, max_attempts=3, stats=stats)
        assert stats.rejected_quality == 3

    @pytest.mark.parametrize(
        "active",
        [
            IPV4_TCP.fields,
            (RssField.SRC_IP, RssField.SRC_PORT, RssField.DST_PORT),
            (RssField.DST_IP, RssField.DST_PORT),
            (RssField.SRC_PORT,),
        ],
    )
    def test_sample_rows_match_per_field_bytes(self, active):
        solver = RssKeySolver(E810, {0: IPV4_TCP}, quality_samples=50)
        batched, scalar = np.random.default_rng(3), np.random.default_rng(3)
        rows = solver._sample_inputs(IPV4_TCP, list(active), batched)
        for row in rows:
            expected = bytearray(IPV4_TCP.input_bytes)
            for fld in active:
                start = IPV4_TCP.offsets()[fld] // 8
                expected[start : start + fld.width // 8] = scalar.bytes(fld.width // 8)
            assert bytes(row) == bytes(expected)
        assert batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("case", range(12))
    def test_batched_check_matches_scalar_loop(self, case):
        src = np.random.default_rng(case)
        solver = RssKeySolver(
            PERMISSIVE_NIC,
            {0: IPV4_TCP, 1: IPV4_ONLY if case % 2 else IPV4_TCP},
            n_queues=int(src.choice([2, 8, 16])),
            quality_factor=float(src.choice([1.1, 2.0])),
            quality_samples=int(src.choice([1, 33, 256])),
        )
        reqs = [
            CancelField(0, fld) for fld in IPV4_TCP.fields if src.random() < 0.3
        ]
        sparse = bytes(src.bytes(4)) + bytes(48)
        keys = {0: src.bytes(52), 1: sparse if case % 3 == 0 else src.bytes(52)}
        batched, scalar = np.random.default_rng(case), np.random.default_rng(case)
        assert solver._distribution_ok(keys, reqs, batched) == (
            _scalar_distribution_ok(solver, keys, reqs, scalar)
        )
        assert batched.bit_generator.state == scalar.bit_generator.state
