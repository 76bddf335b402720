#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or check the benchmark against itself.

    python3 bench/compare.py A*.json -- B*.json
    python3 bench/compare.py --self [--runs N]

The files are what ``run.py --json FILE`` writes.  For every workload and
end-to-end metric the report gives both medians and quartiles, the
fraction of pairs B wins, and a verdict by the rule of the
choosing-metrics guide:

* ``unresolved`` when either set's spread (IQR / median) exceeds the
  metric's bound in BENCHMARK.json: the box was too noisy to tell;
* ``regressed`` when B's median is worse than A's by more than the bound;
* ``improved`` only when B wins at least 9 pairs in 10 (ties count for
  neither side) and the medians differ by more than A's own IQR;
* ``unchanged`` otherwise.

Counters that repeat exactly and output digests are compared for equality.
``--self`` runs two interleaved sets (A, B, A, B, ...) of the current
tree and exits non-zero when they disagree: that is the benchmark's own
noise check, and its output is committed as bench/selfcheck.txt.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run

#: Per-layer counters that must not differ between two runs of one tree
#: (on the virtual backend and in the service; timing decides nothing there).
EXACT = (
    "threads.tasks",
    "parcel.sent",
    "parcel.bytes",
    "sim.virtual_makespan_s",
    "journal.records",
    "checkpoint.files",
)
EXACT_WORKLOADS = ("heat1d_fine", "jacobi2d_coarse", "service_jobs")


def load(paths: list[str]) -> dict[str, list[dict]]:
    """workload -> its records, in file order."""
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for record in json.load(fh):
                by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, str]:
    """(verdict, one report line body) for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = run.quartiles(a)
    b_q1, b_med, b_q3 = run.quartiles(b)
    a_spread = (a_q3 - a_q1) / a_med
    b_spread = (b_q3 - b_q1) / b_med
    gain = sign * (b_med - a_med) / a_med  # positive = B better
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if max(a_spread, b_spread) > bound:
        result = "unresolved"
    elif gain < -bound:
        result = "regressed"
    elif pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        result = "improved"
    else:
        result = "unchanged"
    body = (
        f"A {a_med:>12.6g} [{a_q1:.6g}, {a_q3:.6g}] spread {a_spread:6.2%}   "
        f"B {b_med:>12.6g} [{b_q1:.6g}, {b_q3:.6g}] spread {b_spread:6.2%}   "
        f"B-A {gain:+7.2%}  B wins {wins}/{len(pairs)} loses {losses}/{len(pairs)}  "
        f"bound {bound:.0%}"
    )
    return result, body


def exact_values(records: list[dict]) -> dict[str, set]:
    """Every value seen for each exact counter and digest, by (seed, name)
    where the seed matters (field digests) and by name otherwise."""
    seen: dict[str, set] = {}
    for record in records:
        for name in EXACT:
            metric = record["per_layer"].get(name)
            if metric is not None and record["workload"] in EXACT_WORKLOADS:
                seen.setdefault(name, set()).add(metric["value"])
        for name, digest in record["digests"].items():
            key = name if name.startswith("mode_") else f"{name}@seed{record['seed']}"
            seen.setdefault(f"digest.{key}", set()).add(digest)
    return seen


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]], spec: dict) -> int:
    """Print the report; returns the number of disagreements."""
    bad = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs_a = [r for r in a.get(workload, []) if not r["trace"]]
        runs_b = [r for r in b.get(workload, []) if not r["trace"]]
        if not runs_a or not runs_b:
            continue
        rounds = [r["rounds"] for r in runs_a + runs_b]
        ops = [r["ops"] for r in runs_a + runs_b]
        print(
            f"{workload}: {len(runs_a)} runs in A, {len(runs_b)} in B; per run "
            f"{min(rounds)}-{max(rounds)} rounds, {min(ops)}-{max(ops)} ops timed"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result, body = verdict(
                [r["end_to_end"][name]["value"] for r in runs_a],
                [r["end_to_end"][name]["value"] for r in runs_b],
                metric["better"],
                metric["bound"],
            )
            bad += result in ("regressed", "improved", "unresolved")
            print(f"  {name:<12} {result:<11} {body}")
        for label, records in (("A", a[workload]), ("B", b[workload])):
            for r in (r for r in records if r["trace"]):
                layers = r["per_layer"]
                print(
                    f"  traced {label}: {r['rounds']} untraced + {r['rounds']} traced rounds, "
                    f"trace.overhead_frac {layers['trace.overhead_frac']['value']:+.3f}, "
                    f"trace.layer_sum_frac {layers['trace.layer_sum_frac']['value']:.4f}"
                )
        values_a, values_b = exact_values(a[workload]), exact_values(b[workload])
        for name in sorted(set(values_a) | set(values_b)):
            both = values_a.get(name, set()) | values_b.get(name, set())
            same = len(both) == 1
            bad += not same
            shown = next(iter(both)) if same else sorted(both, key=str)
            print(f"  {name:<40} {'identical' if same else 'DIFFERS'}  {shown}")
        failed = sum(r["failed"] for r in a[workload] + b[workload])
        wrong = sum(not r["correct"] for r in a[workload] + b[workload])
        bad += failed + wrong
        print(f"  failed ops {failed}, runs with a wrong output {wrong}")
    return bad


def self_check(runs: int, seconds: float, spec: dict) -> int:
    out_dir = os.path.join(run.HERE, "out", "self")
    os.makedirs(out_dir, exist_ok=True)
    sets: dict[str, list[str]] = {"A": [], "B": []}
    for workload in (entry["name"] for entry in spec["workloads"]):
        # One traced run per set for the exact counters, then the pairs.
        for index in range(runs + 1):
            for label in ("A", "B"):
                trace = int(index == runs)
                seed = 1 if trace else index + 1
                path = os.path.join(out_dir, f"{label}-{workload}-{index}.json")
                record = run.run_workload(workload, seed, seconds, trace, smoke=False)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump([record], fh)
                sets[label].append(path)
                print(f"ran {label} {workload} seed {seed} trace {trace}", file=sys.stderr)
    return compare(load(sets["A"]), load(sets["B"]), spec)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spec = run.spec()
    if "--" in argv:
        split = argv.index("--")
        bad = compare(load(argv[:split]), load(argv[split + 1 :]), spec)
    else:
        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("--self", action="store_true", dest="self_check", required=True)
        parser.add_argument("--runs", type=int, default=5, help="runs per set")
        args = parser.parse_args(argv)
        bad = self_check(args.runs, spec["run_seconds"], spec)
    print(f"{bad} disagreement(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
