"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-cores --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off and
reported at reference speed (see ``README.md``, Steadiness); ``--trace 1`` is
a separate run that prints the per-layer metrics.  Lines
before the last are context: the machine, the workload's sample counts and,
for the service workload, sent/succeeded/failed per ladder rate.  The last
line is ``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer
makes the exit code 1; a checkout without the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search-cores", "sim-sweep", "serve-repeat")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import benchlib
    import search_workloads
    import serve_workloads

    workers = benchlib.cpu_count()
    trace = bool(args.trace)
    if args.workload == "search-cores":
        out = search_workloads.run_search_cores(args.seed, args.seconds, trace, args.smoke, workers)
        busy = workers + 1  # the coordinator
    elif args.workload == "sim-sweep":
        workers = 0  # one process; the simulated processor counts are the ladder
        out = search_workloads.run_sim_sweep(args.seed, args.seconds, trace, args.smoke)
        busy = 1
    else:
        out = serve_workloads.run_serve(args.seed, args.seconds, trace, args.smoke, workers)
        busy = workers + 2  # the service process and this load generator

    context = benchlib.machine_context(args.workload, args.seed, workers, busy, trace)
    print(json.dumps({"context": {**context, **out.context}}))
    for problem in out.wrong:
        print(f"WRONG: {problem}", file=sys.stderr)
    if trace:
        metrics = {name: {"value": out.layer[name], "unit": unit} for name, unit in benchlib.LAYER.items()}
    else:
        metrics = {
            name: {"value": out.e2e[name], "unit": unit}
            for name, (unit, _) in benchlib.E2E.items()
        }
    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
