#!/usr/bin/env python3
"""The benchmark of BENCHMARK.json: one command, every metric by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without ``--workload`` it runs all four in turn.

Each workload runs in a fresh subprocess (``measure.py``) with
``PYTHONHASHSEED=0`` and one BLAS/OMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A workload's subprocess is killed after this long.
WORKLOAD_TIMEOUT_S = 170.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run ``measure.py`` once; returns its record."""
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        *(("--smoke",) if smoke else ()),
    ]  # fmt: skip
    done = subprocess.run(
        command,
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKLOAD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench: {workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(record: dict, names: dict[str, list[str]]) -> dict:
    """Print one workload's metrics by name; returns the contract's
    result object for it."""
    workload = record["workload"]
    kind = "per_layer" if record["trace"] else "end_to_end"
    print(
        f"{workload}: seed {record['seed']}, {record['rounds']} rounds, "
        f"{record['ops']} ops timed, {record['attempted']} attempted, "
        f"{record['failed']} failed, work unit {record['work_unit']}"
    )
    shown = dict(record["end_to_end"], **record["per_layer"])
    for name, metric in shown.items():
        print(f"  {workload:<16} {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"  {workload}: PROBLEM {problem}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record[kind][name] for name in names[kind]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE", help="also write the full records here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one round")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("bench: src/repro is missing; nothing to measure", file=sys.stderr)
        return 2
    benchmark = spec()
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    if args.workload is not None:
        if args.workload not in workloads:
            parser.error(f"unknown workload {args.workload!r}; choose from {workloads}")
        workloads = [args.workload]
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    names = {
        kind: [metric["name"] for metric in benchmark[kind]]
        for kind in ("end_to_end", "per_layer")
    }

    records = [run_workload(name, args.seed, seconds, args.trace, args.smoke) for name in workloads]
    results = {record["workload"]: report(record, names) for record in records}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
    if len(records) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}/{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
