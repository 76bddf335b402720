"""Guards on the benchmark itself (run with ``pytest bench/tests``).

Everything here uses ``--smoke``: one round of tiny grids per workload,
a few seconds in total.  Not part of the repository's tier-1 suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from tracing import ALLOW_LIST, Tracer, shim_key  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

#: Which allow-listed callables each workload must exercise.  A shim that
#: records nothing where it should means code moved and a layer metric
#: went silently empty.
HEAT = {"Heat1DPartition.advance", "Heat1DPartition.send_boundaries", "DistributedHeat1D.solution"}
JACOBI = {"Jacobi2DPartition.advance", "Jacobi2DPartition.send_edges", "DistributedJacobi2D.solution"}
EXERCISED = {
    "heat1d_fine": HEAT | {"serialization.serialize"},
    "jacobi2d_coarse": JACOBI | {"serialization.serialize"},
    "jacobi2d_mp": JACOBI
    | {"serialization.serialize", "serialization.deserialize"}
    | {"wire.send_message", "wire.decode_message"},
    "service_jobs": HEAT
    | {"serialization.serialize", "Journal.append", "save_checkpoint", "Checkpoint.write"}
    | {"Runtime.__init__", "Runtime.start", "Runtime.stop"},
}


def smoke(tmp_path, trace: int, tag: str) -> tuple[list[str], list[dict]]:
    """Run all four workloads in smoke mode; (stdout lines, records)."""
    path = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke", "--seed", "7",
         "--trace", str(trace), "--json", str(path)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )  # fmt: skip
    with open(path, encoding="utf-8") as fh:
        return done.stdout.strip().splitlines(), json.load(fh)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("traced"), 1, "a")


def test_names_match_benchmark_json(traced, tmp_path):
    workloads = [entry["name"] for entry in SPEC["workloads"]]
    assert sorted(workloads) == sorted(WORKLOADS)
    for trace, lines_records in ((1, traced), (0, smoke(tmp_path, 0, "untraced"))):
        lines, records = lines_records
        assert [record["workload"] for record in records] == workloads
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        kind = "per_layer" if trace else "end_to_end"
        wanted = {
            f"{workload}/{metric['name']}": metric["unit"]
            for workload in workloads
            for metric in SPEC[kind]
        }
        assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
        # Every metric is also printed by name with its unit.
        printed = {(line.split()[0], line.split()[1]) for line in lines[:-1] if line.startswith("  ")}
        assert {tuple(name.split("/")) for name in wanted} <= printed


def test_every_shim_fires_where_it_should(traced):
    _lines, records = traced
    keys = {shim_key(module, cls, attr) for module, cls, attr, _name in ALLOW_LIST}
    covered = set()
    for record in records:
        for suffix in EXERCISED[record["workload"]]:
            (key,) = [k for k in keys if k.endswith("." + suffix)]
            assert record["shim_calls"][key] >= 1, (record["workload"], key)
            covered.add(key)
    assert covered == keys  # no allow-list entry is exercised nowhere


def test_same_seed_repeats_exact_counters(traced, tmp_path):
    _lines, first = traced
    _lines, second = smoke(tmp_path, 1, "b")
    exact = ("threads.tasks", "parcel.sent", "parcel.bytes", "sim.virtual_makespan_s",
             "journal.records", "checkpoint.files")  # fmt: skip
    for a, b in zip(first, second):
        assert a["digests"] == b["digests"]
        if a["workload"] != "jacobi2d_mp":  # timing decides the driver's share there
            for name in exact:
                assert a["per_layer"][name] == b["per_layer"][name], (a["workload"], name)


@pytest.mark.parametrize("name", ["heat1d_fine", "jacobi2d_coarse"])
def test_corrupted_field_fails_the_oracle(name):
    wl = WORKLOADS[name](7, Tracer("test"), smoke=True)
    wl.setup()
    try:
        wl.check_setup()
        assert wl.problems == [] and wl.plausible(wl.out)
        wl.out[tuple(np.array(wl.out.shape) // 2)] += 1e-6
        wl.check_setup()
        assert len(wl.problems) == 1
        assert not wl.plausible(wl.out + 2.0)
    finally:
        wl.teardown()


def test_wrong_job_digest_is_a_failed_op():
    wl = WORKLOADS["service_jobs"](7, Tracer("test"), smoke=True)
    wl.setup()
    try:
        assert wl.policy.sync_journal  # the durable path is what is measured
        modes = [params["mode"] for wave in wl.plan for _tenant, params in wave]
        wl.digests[f"mode_{modes[0]}"] = "0" * 64
        _segments, _walls, failed = wl.run_round()
        assert failed == modes.count(modes[0])
    finally:
        wl.teardown()
    assert not os.path.exists(wl.base)  # nothing stays behind on tmpfs
