"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the span recorder and prints
the per-layer metrics instead (and writes the spans to
``.perfbench/``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run from the root
of a source checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The modules a build needs; re-importing them is the ``build`` set-up.
LAYERS = (
    "repro.core.pipeline",
    "repro.nf.nfs",
    "repro.analysis",
    "repro.sim.compiled",
    "repro.sim.functional",
)
IMPORT_REPS = 3


def import_layers() -> float:
    """Import the program's layers from scratch; return the seconds taken."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    start = time.perf_counter()
    for name in LAYERS:
        importlib.import_module(name)
    return time.perf_counter() - start


def declared_metrics(trace: bool) -> dict[str, str] | None:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "steady", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    setup_s = None
    if args.workload == "build":
        setup_s = [import_layers() for _ in range(IMPORT_REPS)]
    from perfbench.workloads import Bench

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = bench.run(setup_s)

    declared = declared_metrics(bool(args.trace))
    got = {name: unit for name, (_, unit) in metrics.items()}
    if declared is not None and declared != got:
        print(
            "error: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(got))}, "
            f"extra {sorted(set(got) - set(declared))}, "
            f"units {sorted(n for n in got if n in declared and got[n] != declared[n])}",
            file=sys.stderr,
        )
        return 3

    if args.trace:
        path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.npz"
        bench.rec.save(path)
        print(f"spans: {len(bench.rec.start)} written to {path.relative_to(ROOT)}")
    print("samples: " + ", ".join(f"{k}={v}" for k, v in bench.samples.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
