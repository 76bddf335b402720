"""Command-line interface: ``python -m repro <command>``.

Each command group module declares its sub-parsers and binds each one to
its handler (``set_defaults(handler=...)``; a handler takes the parsed
``args`` and returns the exit code), so a command's flags sit beside its
code and ``python -m repro --help`` is the command catalogue.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from . import jobs, models, observe, run

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Performance Evaluation of ParalleX "
        "Execution model on Arm-based Platforms' (CLUSTER 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group in (models, observe, run, jobs):
        group.add_commands(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)
