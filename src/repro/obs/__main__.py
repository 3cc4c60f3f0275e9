"""CLI: ``python -m repro.obs {report,top,timeline,prom} ...``.

``report`` aggregates a JSONL *trace*; ``top``/``timeline``/``prom``
render a *telemetry* series file written by
:func:`repro.obs.write_telemetry` (e.g. the ``telemetry-report``
artifacts' sibling series, or anything captured with
``obs.telemetry(sink)``).

Exit codes: 0 on success, 2 on a malformed input file
(:class:`~repro.obs.errors.InputError`, naming the file and the field),
1 on any other error (a missing file included).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.errors import InputError
from repro.obs.export import load_telemetry, load_trace, render_prometheus
from repro.obs.report import render_collector, render_timeline, render_top
from repro.obs.telemetry import METRICS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect structured traces emitted by the Maestro pipeline.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    report = subparsers.add_parser(
        "report", help="aggregate a JSONL trace into per-stage/per-NF tables"
    )
    report.add_argument("trace", help="path to a trace.jsonl file")
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the MemoryCollector summary as JSON instead of tables",
    )
    top = subparsers.add_parser(
        "top", help="per-core summary table from a telemetry series file"
    )
    top.add_argument("telemetry", help="path to a telemetry.jsonl file")
    timeline = subparsers.add_parser(
        "timeline", help="window-by-window per-core series of one metric"
    )
    timeline.add_argument("telemetry", help="path to a telemetry.jsonl file")
    timeline.add_argument(
        "--metric", default="packets", choices=METRICS,
        help="which per-core metric to render (default: packets)",
    )
    prom = subparsers.add_parser(
        "prom", help="Prometheus text exposition of a telemetry series file"
    )
    prom.add_argument("telemetry", help="path to a telemetry.jsonl file")
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            collector = load_trace(args.trace)
            if args.json:
                print(json.dumps(collector.summary(), indent=2, sort_keys=True))
            else:
                print(render_collector(collector, title=args.trace))
        elif args.command == "top":
            sink, _ = load_telemetry(args.telemetry)
            print(render_top(sink))
        elif args.command == "timeline":
            sink, _ = load_telemetry(args.telemetry)
            print(render_timeline(sink, metric=args.metric))
        elif args.command == "prom":
            sink, _ = load_telemetry(args.telemetry)
            print(render_prometheus(sink), end="")
    except BrokenPipeError:  # e.g. `... report t.jsonl | head`
        return 0
    except InputError as exc:  # a malformed file: input error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
