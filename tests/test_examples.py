"""Every example runs to completion.

Each script in ``examples/`` runs in its own interpreter with
``PYTHONPATH=src``, the way its docstring tells a reader to run it, and
must exit 0.  The working directory is a temporary one, so an example
that writes an artifact (``runtime_introspection.trace.json``) leaves
nothing in the tree.  A deletion from the library that an example still
uses fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, f"{script.name} exited {result.returncode}:\n{result.stderr}"
