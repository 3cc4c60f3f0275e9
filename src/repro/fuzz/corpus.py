"""Crash corpus: minimized reproducers under ``tests/fuzz_corpus/``.

Each reproducer is one JSON file pinning everything a replay needs:
the NF spec (not the seed-derived shape — the *shrunk* spec), the
exact packet list, the fault-injection mode, the failure signature,
and the pipeline version that produced it.  ``expect`` records the
replay semantics:

* ``"fail"`` — the case must *still fail with the same signature*
  (green-as-failing: a reproducer that stops failing means the bug was
  fixed, and the file should be promoted to ``expect: "clean"`` or
  deleted after triage);
* ``"clean"`` — a regression test: the case must stay clean.

Replays run before any new fuzzing (`python -m repro.fuzz --corpus`),
so CI catches both regressions and silent fixes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.errors import InputError
from repro.fuzz.generator import NfSpec, render_source
from repro.fuzz.oracle import FAULTS, OracleReport, run_oracle
from repro.nf.packet import Packet
from repro.obs.errors import field_of

__all__ = [
    "CORPUS_FORMAT",
    "CorpusEntry",
    "ReplayOutcome",
    "load_corpus",
    "replay_corpus",
    "save_reproducer",
]

CORPUS_FORMAT = "repro.fuzz/1"

_PACKET_FIELDS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "proto",
    "src_mac",
    "dst_mac",
    "eth_type",
    "wire_size",
    "timestamp",
)


def packet_to_dict(pkt: Packet) -> dict:
    return {name: getattr(pkt, name) for name in _PACKET_FIELDS}


def packet_from_dict(data: dict) -> Packet:
    return Packet(**{name: data[name] for name in _PACKET_FIELDS if name in data})


def _fault(value) -> str | None:
    if value is not None and value not in FAULTS:
        raise ValueError(f"unknown fault {value!r}")
    return value


def _object(value) -> dict | None:
    if value is not None and not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _trace_from_list(items) -> list:
    return [(int(port), packet_from_dict(pkt)) for port, pkt in items]


@dataclass
class CorpusEntry:
    """One reproducer file, fully pinned."""

    name: str
    spec: NfSpec
    trace: list  #: [(port, Packet), ...]
    signature: str
    expect: str = "fail"  #: "fail" | "clean"
    fault: str | None = None
    seed: int | None = None  #: fuzz-session case seed that found it
    n_cores: int = 4
    maestro_seed: int = 0
    pipeline_version: str = ""
    failure: dict | None = None
    shrink: dict | None = None
    nf_source: str = ""
    path: Path | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "format": CORPUS_FORMAT,
            "name": self.name,
            "expect": self.expect,
            "signature": self.signature,
            "fault": self.fault,
            "seed": self.seed,
            "n_cores": self.n_cores,
            "maestro_seed": self.maestro_seed,
            "pipeline_version": self.pipeline_version or repro.__version__,
            "spec": self.spec.to_dict(),
            "trace": [[port, packet_to_dict(pkt)] for port, pkt in self.trace],
            "failure": self.failure,
            "shrink": self.shrink,
            "nf_source": self.nf_source,
        }

    @classmethod
    def from_dict(cls, data: dict, path: Path | None = None) -> "CorpusEntry":
        """Inverse of :meth:`to_dict`; a missing or malformed field raises
        :class:`~repro.errors.InputError` naming ``path`` and the field."""
        try:
            return cls._from_dict(data, path)
        except InputError as exc:
            raise exc.within(path) from None

    @classmethod
    def _from_dict(cls, data, path) -> "CorpusEntry":
        fmt = field_of(data, "format", default=None)
        if fmt != CORPUS_FORMAT:
            raise InputError(
                path, "format",
                f"unknown corpus format {fmt!r} (expected {CORPUS_FORMAT})",
            )
        return cls(
            name=field_of(data, "name"),
            spec=field_of(data, "spec", NfSpec.from_dict),
            trace=field_of(data, "trace", _trace_from_list),
            signature=field_of(data, "signature"),
            expect=field_of(data, "expect", default="fail"),
            fault=field_of(data, "fault", _fault, default=None),
            seed=field_of(data, "seed", default=None),
            n_cores=field_of(data, "n_cores", int, default=4),
            maestro_seed=field_of(data, "maestro_seed", int, default=0),
            pipeline_version=field_of(data, "pipeline_version", default=""),
            failure=field_of(data, "failure", _object, default=None),
            shrink=field_of(data, "shrink", default=None),
            nf_source=field_of(data, "nf_source", default=""),
            path=path,
        )

    @property
    def flight(self) -> list[dict]:
        """The embedded flight-recorder snapshot (last-N-packets context
        captured when the recorded failure tripped), if any."""
        if not self.failure:
            return []
        return list(self.failure.get("flight", []))

    def replay(self) -> OracleReport:
        """Run the oracle on this entry's exact (spec, trace, fault)."""
        return run_oracle(
            self.spec,
            [],
            traces=[(None, list(self.trace))],
            n_cores=self.n_cores,
            maestro_seed=self.maestro_seed,
            fault=self.fault,
        )


@dataclass
class ReplayOutcome:
    """Result of replaying one corpus entry against expectations."""

    entry: CorpusEntry
    report: OracleReport
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.entry.name,
            "path": str(self.entry.path) if self.entry.path else None,
            "expect": self.entry.expect,
            "signature": self.entry.signature,
            "ok": self.ok,
            "detail": self.detail,
        }


def _slug(signature: str) -> str:
    keep = [c if c.isalnum() else "-" for c in signature.lower()]
    out = "".join(keep).strip("-")
    while "--" in out:
        out = out.replace("--", "-")
    return out or "case"


def save_reproducer(corpus_dir: str | Path, entry: CorpusEntry) -> Path:
    """Write ``entry`` to ``corpus_dir`` and return the file path."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    stem = entry.name or f"{_slug(entry.signature)}-s{entry.seed or 0}"
    path = corpus_dir / f"{stem}.json"
    if not entry.nf_source:
        entry.nf_source = render_source(entry.spec)
    entry.name = stem
    entry.path = path
    path.write_text(json.dumps(entry.to_dict(), indent=2) + "\n")
    return path


def load_corpus(corpus_dir: str | Path) -> list[CorpusEntry]:
    """Load every ``*.json`` reproducer in ``corpus_dir`` (sorted).

    A file that is not valid JSON, or lacks or mangles a field, raises
    :class:`~repro.errors.InputError` naming the file and the field.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    entries = []
    for path in sorted(corpus_dir.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InputError(path, "<file>", f"not valid JSON ({exc})") from None
        entries.append(CorpusEntry.from_dict(data, path=path))
    return entries


def replay_corpus(corpus_dir: str | Path) -> list[ReplayOutcome]:
    """Replay every reproducer and check its ``expect`` semantics.

    ``expect: "fail"`` passes only while the recorded signature still
    fails; ``expect: "clean"`` passes only while the oracle is clean.
    """
    outcomes = []
    for entry in load_corpus(corpus_dir):
        report = entry.replay()
        signatures = {f.signature for f in report.failures}
        if entry.expect == "fail":
            ok = entry.signature in signatures
            detail = (
                f"still fails with {entry.signature}"
                if ok
                else (
                    "no longer fails with recorded signature "
                    f"{entry.signature} (got: {sorted(signatures) or 'clean'})"
                    " — bug fixed? retriage this reproducer"
                )
            )
        else:
            ok = report.ok
            detail = (
                "clean"
                if ok
                else f"regressed: {sorted(signatures)}"
            )
        outcomes.append(
            ReplayOutcome(entry=entry, report=report, ok=ok, detail=detail)
        )
    return outcomes
