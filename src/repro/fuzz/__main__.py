"""CLI: ``python -m repro.fuzz --seed 0 --runs 200``.

Replays the checked-in crash corpus first, then fuzzes fresh cases.
Exit codes match ``repro.analysis``: 0 when the corpus replays with
its recorded expectations and no new failure was found, 1 when any
check failed, 2 on usage mistakes and malformed corpus files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import InputError
from repro.fuzz.generator import SHAPES
from repro.fuzz.oracle import FAULTS
from repro.fuzz.runner import FuzzSession
from repro.fuzz.workloads import WORKLOAD_KINDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description=(
            "Differential fuzzing of the Maestro pipeline: generated NFs "
            "× adversarial traffic × every parallelization strategy."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    parser.add_argument(
        "--runs", type=int, default=50, help="number of fresh cases (default 50)"
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop starting new cases after this many seconds",
    )
    parser.add_argument(
        "--shape",
        choices=sorted(SHAPES),
        default="medium",
        help="generated-NF size knobs (default medium)",
    )
    parser.add_argument(
        "--corpus",
        default="tests/fuzz_corpus",
        metavar="DIR",
        help=(
            "crash-corpus directory: replayed first, shrunk reproducers "
            "are written here (default tests/fuzz_corpus)"
        ),
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the corpus replay step",
    )
    parser.add_argument(
        "--no-save",
        action="store_true",
        help="don't write new reproducers into the corpus",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without minimizing them",
    )
    parser.add_argument(
        "--fault",
        choices=FAULTS,
        default=None,
        help="inject a known pipeline bug into every case (oracle self-test)",
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_KINDS,
        default=None,
        metavar="KIND",
        help=(
            "force every generated workload to one kind (e.g. 'rescale' "
            f"for the elastic-scaling sweep); choices: {', '.join(WORKLOAD_KINDS)}"
        ),
    )
    parser.add_argument(
        "--n-cores", type=int, default=4, help="cores per parallel build"
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the full report as JSON (to FILE, or stdout with no arg)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.runs < 0 or args.n_cores <= 0:
        parser.print_usage(sys.stderr)
        print("error: --runs must be >= 0 and --n-cores > 0", file=sys.stderr)
        return 2
    session = FuzzSession(
        seed=args.seed,
        runs=args.runs,
        shape=args.shape,
        time_budget=args.time_budget,
        n_cores=args.n_cores,
        corpus_dir=args.corpus,
        save=not args.no_save,
        fault=args.fault,
        workload_kind=args.workload,
        shrink=not args.no_shrink,
        replay=not args.no_replay,
    )
    try:
        report = session.run()
    except InputError as exc:  # a malformed corpus file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if (
        args.workload == "rescale"
        and args.runs > 0
        and not report.budget_exhausted
        and report.rescale_checks == 0
    ):
        # The whole point of --workload rescale is exercising live
        # migration; a campaign where the mutator never produced a
        # rescale check (every case drew a LOCKS verdict, or the check
        # was silently skipped) must not pass as green.
        print(
            "error: --workload rescale ran but zero rescale checks "
            "executed — the mutator was silently skipped",
            file=sys.stderr,
        )
        if args.json is None:
            print(report.describe())
        return 1
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).parent.mkdir(parents=True, exist_ok=True)
            Path(args.json).write_text(payload + "\n")
            print(f"report written to {args.json}", file=sys.stderr)
            print(report.describe(), file=sys.stderr)
    else:
        print(report.describe())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
