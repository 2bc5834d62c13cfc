"""``python -m repro.tools.many_clients`` — async tail-latency sweep.

Launches a loopback TCP cluster (``build_tcp``, whose client tier is
the asyncio driver), runs N concurrent coroutine clients per tier —
each one simulated open connection performing one page write plus reads
of its own page — and prints the Read/Write p50/p95/p99 table the
benchmark family publishes (or the raw series with ``--json``)::

    # the CI fast tier
    python -m repro.tools.many_clients --clients 256

    # the paper-style sweep up to ten thousand open connections
    python -m repro.tools.many_clients --clients 256,2048,10240

Latencies are host wall-clock against real sockets; use the same host
back to back when comparing runs. ``main(argv)`` is a plain function,
unit-testable without a subprocess.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.figures import render_series_table
from repro.bench.many_clients import many_clients_quantiles
from repro.errors import ReproError
from repro.util.sizes import KB


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.many_clients",
        description="Measure asyncio-client tail latency against a real "
        "loopback TCP cluster.",
    )
    parser.add_argument(
        "--clients",
        default="256,2048",
        metavar="N[,N...]",
        help="comma-separated client-count tiers (default: 256,2048)",
    )
    parser.add_argument(
        "--reads",
        type=int,
        default=2,
        help="reads of its own page each client performs after its write "
        "(default: 2)",
    )
    parser.add_argument(
        "--data", type=int, default=4, help="data agents (default: 4)"
    )
    parser.add_argument(
        "--meta", type=int, default=2, help="meta agents (default: 2)"
    )
    parser.add_argument(
        "--page",
        type=int,
        default=4 * KB,
        help="page size in bytes, power of two (default: 4096)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the series and counters as JSON instead of the table",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tiers = tuple(int(part) for part in args.clients.split(","))
        if not tiers or any(n < 1 for n in tiers):
            raise ValueError(f"--clients needs positive tiers, got {tiers}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        fig = many_clients_quantiles(
            tiers,
            reads_per_client=args.reads,
            n_data=args.data,
            n_meta=args.meta,
            page=args.page,
        )
    except (ReproError, OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        doc = {
            "figure_id": fig.figure_id,
            "series": [
                {"label": s.label, "x": s.x, "y": s.y} for s in fig.series
            ],
            "counters": fig.counters,
        }
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        print(render_series_table(fig, y_format=lambda v: f"{v:.2f}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
