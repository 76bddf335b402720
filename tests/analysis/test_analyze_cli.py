"""The ``repro analyze`` CLI surface."""

import json
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_races_and_deadlocks_clean_demo(capsys):
    code, out = run_cli(
        capsys, "analyze", "--races", "--deadlocks", "--nodes", "2", "--steps", "3"
    )
    assert code == 0
    assert "races: none" in out
    assert "deadlocks: none" in out


def test_analyze_scheduler_flag(capsys):
    code, out = run_cli(
        capsys, "analyze", "--races", "--scheduler", "fifo", "--steps", "2"
    )
    assert code == 0
    assert "fifo scheduler" in out


def test_analyze_lint_clean_tree(capsys):
    """The repro-specific lint over everything that is Python in the tree."""
    paths = [str(ROOT / name) for name in ("src", "tests", "examples")]
    code, out = run_cli(capsys, "analyze", "--lint", *paths)
    assert code == 0, out


def test_analyze_lint_findings_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    return x\n")
    code, out = run_cli(capsys, "analyze", "--lint", str(bad))
    assert code == 1
    assert "PX501" in out


def test_analyze_lint_json(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    return x\n")
    code, out = run_cli(capsys, "analyze", "--lint", "--json", str(bad))
    assert code == 1
    assert json.loads(out)[0]["code"] == "PX501"


def test_analyze_explore_single_app_clean(capsys):
    code, out = run_cli(
        capsys, "analyze", "--explore", "--app", "heat1d", "--budget", "8"
    )
    assert code == 0
    assert "heat1d [dpor]" in out
    assert "no violations" in out


def test_analyze_explore_prints_the_two_demo_lines(capsys):
    """The explorer's demos are the paper's two applications, and their
    search is pinned line for line."""
    code, out = run_cli(capsys, "analyze", "--explore", "--budget", "40")
    assert code == 0
    assert out.splitlines() == [
        "heat1d [dpor]: 40 schedules, budget 40 reached, no violations",
        "jacobi2d [dpor]: 14 schedules, search space exhausted, no violations",
    ]


def test_analyze_explore_finds_corpus_bug_and_writes_replay(tmp_path, capsys):
    import corpus  # noqa: F401 - registers the corpus apps

    replay_dir = tmp_path / "replays"
    code, out = run_cli(
        capsys,
        "analyze",
        "--explore",
        "--app",
        "corpus/race_hidden",
        "--replay-dir",
        str(replay_dir),
    )
    assert code == 1
    assert "[race]" in out
    replay_file = replay_dir / "corpus_race_hidden.replay.json"
    assert replay_file.exists()

    code, out = run_cli(capsys, "analyze", "--replay", str(replay_file))
    assert code == 0
    assert "reproduced bit-identically" in out


def test_analyze_explore_deadlock_writes_dot(tmp_path, capsys):
    import corpus  # noqa: F401 - registers the corpus apps

    dot = tmp_path / "waitfor.dot"
    code, out = run_cli(
        capsys,
        "analyze",
        "--explore",
        "--app",
        "corpus/join_deadlock",
        "--dot",
        str(dot),
    )
    assert code == 1
    assert "[deadlock]" in out
    assert dot.read_text().startswith("digraph")
    assert "->" in dot.read_text()


def test_analyze_deadlocks_dot_export(tmp_path, capsys):
    dot = tmp_path / "demo.dot"
    code, out = run_cli(
        capsys, "analyze", "--deadlocks", "--steps", "2", "--dot", str(dot)
    )
    assert code == 0
    assert "wait-graph DOT written" in out
    assert dot.read_text().startswith("digraph")


def test_analyze_lint_has_no_fix_or_filter_flags():
    for flag in ("--fix", "--select=PX601", "--ignore=PX601"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--lint", flag, "src"])
        assert exc.value.code == 2
