"""Structured JSONL export and re-import of traces.

One JSON object per line.  Event kinds (``kind`` field):

``meta``
    First line of every file: ``{"kind": "meta", "schema": 1,
    "created_unix": ...}``.
``span``
    ``{"kind": "span", "name", "id", "parent", "depth", "ts",
    "dur_s", "attrs"}`` — emitted as each span closes (children before
    parents, so a file replays bottom-up).
``counter``
    ``{"kind": "counter", "name", "value", "attrs"}`` — aggregated
    per ``(name, attrs)`` stream and flushed on :meth:`JsonlCollector.close`
    so per-packet increments don't bloat the file.
``histogram``
    ``{"kind": "histogram", "name", "value", "attrs"}`` — streamed
    as observed (histogram volumes are small).

``load_trace`` replays a file into a :class:`MemoryCollector`, so
aggregation code (``summary()``, the report CLI) is shared between live
and exported traces.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterator, TextIO

from repro.obs.collect import MemoryCollector
from repro.obs.errors import InputError
from repro.obs.telemetry import METRICS, TelemetrySink
from repro.obs.trace import SpanRecord

__all__ = [
    "SCHEMA_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "JsonlCollector",
    "read_events",
    "load_trace",
    "write_telemetry",
    "load_telemetry",
    "render_prometheus",
]

SCHEMA_VERSION = 1
TELEMETRY_SCHEMA_VERSION = 1


def _clean_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    """Coerce attribute values into JSON-representable scalars."""
    out: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[str(key)] = value
        else:
            out[str(key)] = str(value)
    return out


class JsonlCollector:
    """Write trace events to a JSONL file as they happen.

    Spans and histograms stream straight to disk; counters aggregate in
    memory and flush on :meth:`close` (or ``with`` exit).  Accepts a path
    or any text file object.
    """

    def __init__(self, destination: "str | TextIO"):
        if isinstance(destination, str):
            self._file: TextIO = open(destination, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = destination
            self._owns_file = False
        self._pending_counters: dict[tuple[str, tuple[tuple[str, Any], ...]], int] = {}
        self._closed = False
        self._write(
            {"kind": "meta", "schema": SCHEMA_VERSION, "created_unix": time.time()}
        )

    def _write(self, event: dict[str, Any]) -> None:
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")

    # ---------------------------------------------------------- #
    # Collector protocol
    # ---------------------------------------------------------- #
    def on_span(self, record: SpanRecord) -> None:
        self._write(
            {
                "kind": "span",
                "name": record.name,
                "id": record.span_id,
                "parent": record.parent_id,
                "depth": record.depth,
                "ts": record.start_unix,
                "dur_s": record.duration_s,
                "attrs": _clean_attrs(record.attrs),
            }
        )

    def on_counter(self, name: str, value: int, attrs: dict[str, Any]) -> None:
        key = (name, tuple(sorted(_clean_attrs(attrs).items())))
        self._pending_counters[key] = self._pending_counters.get(key, 0) + int(value)

    def on_histogram(self, name: str, value: float, attrs: dict[str, Any]) -> None:
        self._write(
            {
                "kind": "histogram",
                "name": name,
                "value": float(value),
                "attrs": _clean_attrs(attrs),
            }
        )

    # ---------------------------------------------------------- #
    # Lifecycle
    # ---------------------------------------------------------- #
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for (name, attr_items), total in sorted(self._pending_counters.items()):
            self._write(
                {
                    "kind": "counter",
                    "name": name,
                    "value": total,
                    "attrs": dict(attr_items),
                }
            )
        self._pending_counters.clear()
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "JsonlCollector":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False


def read_events(path: str) -> Iterator[dict[str, Any]]:
    """Yield every event object in a JSONL trace file (meta included).

    A line that is not a JSON object, or a file that is not UTF-8 text,
    raises :class:`~repro.obs.errors.InputError` naming the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        line_number = 0
        try:
            for line_number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(
                        path, f"line {line_number}",
                        f"not valid JSONL ({exc})",
                    ) from None
                if not isinstance(event, dict):
                    raise InputError(
                        path, f"line {line_number}", "not a JSON object"
                    )
                yield event
        except UnicodeDecodeError as exc:
            raise InputError(
                path, f"line {line_number + 1}", f"not UTF-8 text ({exc})"
            ) from None


def load_trace(path: str) -> MemoryCollector:
    """Replay a JSONL trace file into a :class:`MemoryCollector`."""
    collector = MemoryCollector()
    for event in read_events(path):
        kind = event.get("kind")
        if kind == "span":
            collector.on_span(
                SpanRecord(
                    name=event["name"],
                    span_id=event.get("id", 0),
                    parent_id=event.get("parent"),
                    depth=event.get("depth", 0),
                    start_unix=event.get("ts", 0.0),
                    duration_s=event["dur_s"],
                    attrs=dict(event.get("attrs", {})),
                )
            )
        elif kind == "counter":
            collector.on_counter(
                event["name"], event["value"], dict(event.get("attrs", {}))
            )
        elif kind == "histogram":
            collector.on_histogram(
                event["name"], event["value"], dict(event.get("attrs", {}))
            )
        elif kind == "meta":
            continue
        else:
            raise ValueError(f"{path}: unknown event kind {kind!r}")
    return collector


# ------------------------------------------------------------------ #
# Telemetry series files
#
# Same one-object-per-line JSONL discipline as traces, different kinds:
# ``telemetry-meta`` (first line: sink configuration + lifetime totals),
# one ``window`` line per ring entry, and an optional ``flight`` line
# carrying a flight-recorder snapshot.
# ------------------------------------------------------------------ #
def write_telemetry(
    path: str,
    sink: TelemetrySink,
    *,
    flight: "list[dict[str, Any]] | None" = None,
) -> None:
    """Serialize a :class:`TelemetrySink` (and optional flight snapshot)."""
    data = sink.to_dict()
    windows = data.pop("windows")
    with open(path, "w", encoding="utf-8") as fh:
        meta = {
            "kind": "telemetry-meta",
            "schema": TELEMETRY_SCHEMA_VERSION,
            "created_unix": time.time(),
            "metrics": list(METRICS),
        }
        meta.update(data)
        fh.write(json.dumps(meta, separators=(",", ":")) + "\n")
        for window in windows:
            event = {"kind": "window"}
            event.update(window)
            fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        if flight:
            fh.write(
                json.dumps(
                    {"kind": "flight", "events": list(flight)},
                    separators=(",", ":"),
                )
                + "\n"
            )


def load_telemetry(path: str) -> tuple[TelemetrySink, list[dict[str, Any]]]:
    """Round-trip of :func:`write_telemetry`: ``(sink, flight_events)``.

    A malformed file raises :class:`~repro.obs.errors.InputError` naming
    the file and the field (missing file: ``OSError``).
    """
    meta: dict[str, Any] | None = None
    windows: list[dict[str, Any]] = []
    flight: list[dict[str, Any]] = []
    for event in read_events(path):
        kind = event.get("kind")
        if kind == "telemetry-meta":
            meta = event
        elif kind == "window":
            windows.append(event)
        elif kind == "flight":
            events = event.get("events", [])
            if not isinstance(events, list):
                raise InputError(path, "flight.events", "not a list")
            flight.extend(events)
        else:
            raise InputError(
                path, "kind", f"unknown telemetry event kind {kind!r}"
            )
    if meta is None:
        raise InputError(path, "telemetry-meta", "missing telemetry-meta line")
    meta = dict(meta)
    meta["windows"] = windows
    try:
        return TelemetrySink.from_dict(meta), flight
    except InputError as exc:
        raise exc.within(path) from None


def render_prometheus(sink: TelemetrySink, *, prefix: str = "repro") -> str:
    """Prometheus text exposition of a sink's lifetime per-core totals.

    One ``<prefix>_core_<metric>_total`` counter family per telemetry
    metric with a ``core`` label, plus window-plane gauges — the format
    scrapers (and humans) already know how to read.
    """
    lines: list[str] = []
    for metric in METRICS:
        family = f"{prefix}_core_{metric}_total"
        lines.append(f"# HELP {family} Per-core {metric} over the run.")
        lines.append(f"# TYPE {family} counter")
        for core_id, total in enumerate(sink.core_totals(metric)):
            lines.append(f'{family}{{core="{core_id}"}} {total}')
    gauges = (
        ("telemetry_window_packets", sink.window_packets),
        ("telemetry_windows_recorded", sink.windows_recorded),
        ("telemetry_total_packets", sink.total_packets),
    )
    for name, value in gauges:
        family = f"{prefix}_{name}"
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {value}")
    return "\n".join(lines) + "\n"
