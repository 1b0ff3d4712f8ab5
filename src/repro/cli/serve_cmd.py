"""``repro serve`` — run the online stack as a long-lived process.

The same harness as ``repro soak`` in endless mode: a synthetic fleet
keeps the gateway → service → learner loop busy so the ``/metrics``,
``/healthz`` and ``/ready`` endpoints serve live numbers an external
Prometheus (or a human with ``curl``) can watch. Stops on ``--duration``,
a ``--fixes`` budget, or Ctrl-C — and still prints the dashboard and SLO
verdict for whatever it served.
"""

from __future__ import annotations

from .soak import SoakHarness, SoakOptions, add_soak_arguments

__all__ = ["register", "run"]


def run(args) -> int:
    harness = SoakHarness(SoakOptions.from_args(args))
    try:
        report = harness.run()
    except KeyboardInterrupt:
        print("\n[serve] interrupted; shutting down")
        return 130
    return 0 if report.passed else 1


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the online stack with live /metrics, /healthz, /ready",
        description="Serve a synthetic fleet through the full online "
                    "stack indefinitely (or for --duration / --fixes), "
                    "exposing live metrics and health endpoints.")
    add_soak_arguments(parser, fixes_default=None)
    parser.set_defaults(func=run)
