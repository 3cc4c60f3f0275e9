"""Corpus round-trip, replay semantics, checked-in reproducer, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import InputError
from repro.fuzz.__main__ import main
from repro.fuzz.corpus import (
    CORPUS_FORMAT,
    CorpusEntry,
    load_corpus,
    replay_corpus,
    save_reproducer,
)
from repro.fuzz.generator import random_spec
from repro.fuzz.oracle import run_oracle
from repro.fuzz.workloads import WorkloadSpec, materialize_workload

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"


def _drop_lock_entry() -> CorpusEntry:
    spec = random_spec(1, shape="small")
    trace = materialize_workload(
        WorkloadSpec("uniform", 11, n_packets=8, n_flows=4)
    )
    report = run_oracle(
        spec, [], traces=[(None, trace)], n_cores=4, maestro_seed=7,
        fault="drop-lock",
    )
    return CorpusEntry(
        name="",
        spec=spec,
        trace=trace,
        signature=report.failures[0].signature,
        fault="drop-lock",
        seed=1,
        maestro_seed=7,
    )


def test_save_load_round_trip(tmp_path) -> None:
    entry = _drop_lock_entry()
    path = save_reproducer(tmp_path, entry)
    assert path.exists()
    data = json.loads(path.read_text())
    assert data["format"] == CORPUS_FORMAT
    assert data["pipeline_version"]
    assert "class GeneratedNF" in data["nf_source"]
    (loaded,) = load_corpus(tmp_path)
    assert loaded.spec == entry.spec
    assert loaded.signature == entry.signature
    assert [(p, pkt.to_bytes()) for p, pkt in loaded.trace] == [
        (p, pkt.to_bytes()) for p, pkt in entry.trace
    ]


def test_replay_semantics_fail_and_clean(tmp_path) -> None:
    entry = _drop_lock_entry()
    save_reproducer(tmp_path, entry)
    clean = _drop_lock_entry()
    clean.fault = None  # same case without the seeded bug: stays clean
    clean.expect = "clean"
    clean.name = "clean-variant"
    save_reproducer(tmp_path, clean)
    outcomes = replay_corpus(tmp_path)
    assert len(outcomes) == 2
    assert all(o.ok for o in outcomes), [o.detail for o in outcomes]


def test_fixed_reproducer_stops_failing_when_fault_removed(tmp_path) -> None:
    """expect: "fail" flips red when the bug is gone (silent-fix alarm)."""
    entry = _drop_lock_entry()
    entry.fault = None  # pretend the pipeline bug got fixed
    save_reproducer(tmp_path, entry)
    (outcome,) = replay_corpus(tmp_path)
    assert not outcome.ok
    assert "no longer fails" in outcome.detail


def test_checked_in_corpus_replays_green_as_failing() -> None:
    """The committed reproducer must stay minimal and keep failing."""
    entries = load_corpus(CORPUS_DIR)
    assert entries, "tests/fuzz_corpus must ship at least one reproducer"
    for entry in entries:
        assert entry.spec.n_state_objects() <= 3
        assert len(entry.trace) <= 10
    outcomes = replay_corpus(CORPUS_DIR)
    assert all(o.ok for o in outcomes), [o.detail for o in outcomes]


def test_unknown_corpus_format_rejected(tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "repro.fuzz/999"}))
    with pytest.raises(ValueError, match="unknown corpus format"):
        load_corpus(tmp_path)


def test_entry_missing_a_field_names_file_and_field(tmp_path) -> None:
    bad = tmp_path / "bare.json"
    bad.write_text(json.dumps({"format": CORPUS_FORMAT}))
    with pytest.raises(InputError) as info:
        load_corpus(tmp_path)
    assert info.value.path == str(bad)
    assert info.value.field == "name"


def test_byte_mutated_entries_raise_only_input_errors(tmp_path) -> None:
    """Seeded byte mutations of the checked-in reproducer either load or
    raise InputError (JSON syntax, missing and mistyped fields alike)."""
    import random

    (good_path,) = sorted(CORPUS_DIR.glob("*.json"))
    good = good_path.read_bytes()
    target = tmp_path / "mutant.json"
    rng = random.Random(5)
    rejected = 0
    for _ in range(300):
        data = bytearray(good)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.choice(
                b'{}[]":,0123456789abxz-. \x00\xff'
            )
        target.write_bytes(bytes(data))
        try:
            load_corpus(tmp_path)
        except InputError as exc:
            assert exc.path == str(target)
            rejected += 1
    assert rejected > 0


# ------------------------------------------------------------------ #
# CLI
# ------------------------------------------------------------------ #
def test_cli_malformed_corpus_exits_two(tmp_path, capsys) -> None:
    (tmp_path / "bare.json").write_text(json.dumps({"format": CORPUS_FORMAT}))
    assert main(["--corpus", str(tmp_path), "--runs", "0"]) == 2
    err = capsys.readouterr().err
    assert "bare.json" in err and "name" in err
    assert "Traceback" not in err


def test_cli_clean_run_exits_zero(tmp_path, capsys) -> None:
    code = main(
        [
            "--seed", "0", "--runs", "2", "--shape", "small",
            "--corpus", str(tmp_path / "none"), "--no-replay", "--no-save",
        ]
    )
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_fault_run_exits_one_and_writes_json(tmp_path, capsys) -> None:
    out = tmp_path / "report.json"
    code = main(
        [
            "--seed", "1", "--runs", "1", "--shape", "small",
            "--fault", "drop-lock", "--no-replay", "--no-save",
            "--no-shrink", "--json", str(out),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["clean"] is False
    assert report["failures"]
    assert report["pipeline_version"]


def test_cli_corpus_replay_only(capsys) -> None:
    code = main(["--runs", "0", "--corpus", str(CORPUS_DIR)])
    assert code == 0
    assert "replay [ok]" in capsys.readouterr().out


def test_cli_usage_error_exits_two(capsys) -> None:
    assert main(["--runs", "-3"]) == 2
