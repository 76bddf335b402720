"""A process imports only the layers it runs.

The stencil, runtime and job-service modules (what a bench workload, a
service job or a forked multiprocess worker loads) must not pull in the
HTTP gateway (asyncio, ssl) or the exhibit layer, and the CLI loads the
gateway only inside ``repro jobs serve``.  Each check runs in a fresh
interpreter, so nothing an earlier test imported hides a regression.
With ``-s`` the first test prints the fresh interpreter's module count
and resident set, the footprint a runtime process starts from:

    PYTHONPATH=src python -m pytest tests/perf/test_pf_import_footprint.py -s
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

RUNTIME_MODULES = (
    "repro.runtime",
    "repro.stencil.heat1d",
    "repro.stencil.jacobi2d_dist",
    "repro.service.service",
    "repro.service.executor",
)
HTTP_STACK = {"asyncio", "ssl", "repro.service.gateway"}


def _fresh_import(*statements: str) -> dict:
    """Run ``statements`` in a fresh interpreter; report what it loaded."""
    script = "\n".join(statements) + (
        "\nimport json, sys\n"
        "rss = [line.split()[1] for line in open('/proc/self/status')\n"
        "       if line.startswith('VmRSS:')]\n"
        "print(json.dumps({'modules': sorted(sys.modules),\n"
        "                  'rss_kb': int(rss[0]) if rss else None}))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_runtime_process_loads_no_gateway_or_exhibits():
    report = _fresh_import(*(f"import {name}" for name in RUNTIME_MODULES))
    loaded = set(report["modules"])
    assert not loaded & (HTTP_STACK | {"repro.exhibits"})
    print(f"\nruntime process: {len(loaded)} modules, VmRSS {report['rss_kb']} kB")


def test_cli_loads_the_http_stack_only_for_serve():
    loaded = set(_fresh_import("import repro.cli")["modules"])
    assert not loaded & HTTP_STACK


def test_unexported_layers_still_import_by_path():
    loaded = set(
        _fresh_import(
            "from repro import exhibits",
            "from repro.service.gateway import JobGateway",
        )["modules"]
    )
    assert {"repro.exhibits", "repro.service.gateway", "asyncio"} <= loaded
