"""The ``repro`` command line — ``python -m repro <subcommand>``.

Four subcommands cover the ops surface of the reproduced system:

* ``serve``  — run the online stack with live /metrics, /healthz, /ready;
* ``replay`` — one synthetic fleet replay with printed detections;
* ``soak``   — sustained-load run judged by scraping its own endpoint;
* ``report`` — dashboard + SLO verdict from a recorded scrape series.

Every subcommand module exposes ``register(subparsers)`` and sets a
``func(args) -> int`` default, so adding a command is one import below.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import __version__
from . import replay, report, serve_cmd, soak

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online anomalous-subtrajectory detection (RL4OASD "
                    "reproduction): serving, soaking and reporting.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for module in (serve_cmd, replay, soak, report):
        module.register(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_help()
        return 2
    return int(func(args) or 0)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
