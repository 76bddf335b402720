"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_machines(capsys):
    code, out = run_cli(capsys, "machines")
    assert code == 0
    for name in ("xeon-e5-2660v3", "kunpeng916", "thunderx2", "a64fx"):
        assert name in out


def test_exhibits_all(capsys):
    code, out = run_cli(capsys, "exhibits")
    assert code == 0
    assert "TABLE I" in out
    assert "Fig 3" in out
    assert "TABLE VI" in out


def test_exhibits_selected(capsys):
    code, out = run_cli(capsys, "exhibits", "table1", "fig5")
    assert code == 0
    assert "TABLE I" in out and "Fig 5" in out
    assert "TABLE VI" not in out


def test_stream(capsys):
    code, out = run_cli(capsys, "stream", "--machine", "a64fx")
    assert code == 0
    assert "660.0" in out


def test_stream_scatter(capsys):
    code, out = run_cli(capsys, "stream", "--machine", "xeon-e5-2660v3",
                        "--pinning", "scatter")
    assert code == 0
    assert "GB/s" in out


def test_stencil1d_strong_and_weak(capsys):
    code, strong = run_cli(capsys, "stencil1d", "--machine", "xeon-e5-2660v3")
    assert code == 0
    assert "strong" in strong
    code, weak = run_cli(
        capsys, "stencil1d", "--machine", "kunpeng916", "--weak", "--nodes", "1", "8"
    )
    assert code == 0
    assert "weak" in weak


def test_stencil2d(capsys):
    code, out = run_cli(
        capsys, "stencil2d", "--machine", "thunderx2", "--dtype", "float64",
        "--mode", "auto",
    )
    assert code == 0
    assert "GLUP/s" in out


def test_counters(capsys):
    code, out = run_cli(capsys, "counters", "--machine", "a64fx")
    assert code == 0
    assert "Backend Stalls" in out


def test_trace(capsys):
    code, out = run_cli(capsys, "trace", "--nodes", "2", "--steps", "4")
    assert code == 0
    assert "locality-0/w0" in out
    assert "#" in out


def test_trace_export_and_metrics(capsys, tmp_path):
    import json

    trace_path = tmp_path / "demo.trace.json"
    metrics_path = tmp_path / "demo.metrics.json"
    code, out = run_cli(
        capsys, "trace", "--nodes", "2", "--steps", "4",
        "--export", str(trace_path), "--metrics", str(metrics_path),
    )
    assert code == 0
    assert str(trace_path) in out and str(metrics_path) in out
    trace = json.loads(trace_path.read_text())
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert {"M", "X", "s", "f"} <= phases
    metrics = json.loads(metrics_path.read_text())
    assert metrics["schema"] == "repro-metrics-v1"
    assert metrics["meta"] == {"nodes": 2, "steps": 4}
    assert metrics["counters"]["/threads{total}/count/cumulative"] > 0
    assert metrics["histograms"]["task_duration"]["count"] > 0


def test_counters_sampled_csv(capsys):
    code, out = run_cli(
        capsys, "counters", "--machine", "xeon-e5-2660v3",
        "--sample-interval", "1.0", "--steps", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("time,/threads{total}/count/cumulative")
    assert len(lines) >= 4  # header + one row per sampled second


def test_counters_sampled_json_to_file(capsys, tmp_path):
    import json

    out_path = tmp_path / "series.json"
    code, out = run_cli(
        capsys, "counters", "--machine", "xeon-e5-2660v3",
        "--sample-interval", "1.0", "--steps", "4",
        "--format", "json", "--output", str(out_path),
        "--paths", "/runtime/uptime", "/threads{total}/idle-rate",
    )
    assert code == 0
    assert str(out_path) in out
    document = json.loads(out_path.read_text())
    assert document["paths"] == ["/runtime/uptime", "/threads{total}/idle-rate"]
    assert document["samples"]


def test_unknown_machine_rejected():
    with pytest.raises(SystemExit):
        main(["stream", "--machine", "epyc"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_bench_is_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_parser_lists_all_exhibits():
    parser = build_parser()
    # Smoke: help text builds without error.
    assert "exhibits" in parser.format_help()


def _subparsers(parser, prefix=()):
    """(argv prefix, parser) of every sub-parser below ``parser``."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield (*prefix, name), child
                yield from _subparsers(child, (*prefix, name))


def test_every_leaf_parser_binds_a_handler_and_prints_help(capsys):
    """The handler table *is* the dispatch: a sub-parser without a
    ``handler`` default would parse and then fail in ``main``."""
    parsers = dict(_subparsers(build_parser()))
    assert len(parsers) == 18  # nine commands, ``jobs`` and its eight
    for argv, parser in parsers.items():
        if argv != ("jobs",):  # not a leaf: it requires a sub-command
            assert callable(parser.get_default("handler")), argv
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert "usage: repro " + " ".join(argv) in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["counters", "--machine", "a64fx", "--sample-interval", "-1"],
        ["counters", "--machine", "a64fx", "--sample-interval", "0.5",
         "--paths", "/bogus/x"],
        # Locality 7 does not exist; locality 0 cannot be decommissioned.
        ["run", "--nodes", "2", "--steps", "4", "--crash", "7@0.001"],
        ["run", "--nodes", "2", "--steps", "4", "--crash", "0@0.001"],
    ],
    ids=["interval", "path", "crash-beyond-nodes", "crash-locality-0"],
)
def test_bad_user_input_is_a_one_line_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
