"""The repository benchmark: loopback clusters under closed-loop load.

Run from the repository root:

    python3 perfbench/run.py --workload scan-1m --seed 1 --seconds 21 --trace 0
    python3 perfbench/run.py --self-check --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload and seed again to produce the per-layer ledger, after the
exact-count self-check (see ``perfbench/README.md``). Progress goes to
stderr; the host record and the metrics go to stdout, whose last line is
the JSON result. The exit code is non-zero when any byte read back is
wrong, when a self-check fails, or when the program under test cannot
be imported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


#: end-to-end metrics printed but not in the JSON result, so not gated:
#: their run-to-run spread on a shared 2-core VM exceeds the largest
#: bound BENCHMARK.json may set (see README.md)
UNGATED = ("read_p99_ms", "write_p99_ms")


def end_to_end(setups: list[float], tallies: list) -> dict:
    """The user-visible metrics over the timed windows of the rounds:
    latency samples are pooled, bytes, ops and CPU seconds summed."""
    from loadgen import quantile

    reads = [x for t in tallies for x in t.read_lat]
    writes = [x for t in tallies for x in t.write_lat]
    window = sum(t.elapsed for t in tallies)
    cpu = sum(t.cpu["client"] + sum(t.cpu["agents"].values()) for t in tallies)
    ms = 1e3
    return {
        "read_p50_ms": _metric(statistics.median(reads) * ms, "ms"),
        "read_p99_ms": _metric(quantile(reads, 0.99) * ms, "ms"),
        "write_p50_ms": _metric(statistics.median(writes) * ms, "ms"),
        "write_p99_ms": _metric(quantile(writes, 0.99) * ms, "ms"),
        "read_MBps": _metric(sum(t.read_bytes for t in tallies) / 1e6 / window, "MB/s"),
        "write_MBps": _metric(sum(t.write_bytes for t in tallies) / 1e6 / window, "MB/s"),
        "cpu_ms_per_op": _metric(
            cpu * ms / sum(t.completed for t in tallies), "ms/op"
        ),
        "setup_s": _metric(statistics.median(setups), "s"),
    }


def use_sources() -> bool:
    """Import the program from this checkout's ``src``, never from
    anywhere else; False when the sources are missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check", action="store_true",
        help="only run the exact-count self-check",
    )
    args = parser.parse_args(argv)
    if not args.self_check and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")
    if not use_sources():
        return 2

    import loadgen
    import selfcheck
    from procstat import host_record

    if args.self_check:
        problems = selfcheck.run_twice(args.seed)
        for line in problems:
            print(line)
        print("self-check", "FAILED" if problems else "ok")
        return 1 if problems else 0

    workload = loadgen.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(loadgen.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    host = host_record(args.seed)
    if args.trace:
        import ledger

        checks = selfcheck.run_twice(args.seed)
        result = ledger.traced_run(workload, args.seed, args.seconds, host, checks)
    else:
        result = untraced_run(workload, args.seed, args.seconds, host)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def untraced_run(workload, seed: int, seconds: float, host: dict) -> dict:
    import loadgen
    from procstat import CpuMeter, native_thread_id

    per_round = seconds / loadgen.ROUNDS
    setups, tallies, corrupt, audited = [], [], [], 0
    for i in range(loadgen.ROUNDS):
        cluster, setup_s = loadgen.launch(workload, seed)
        try:
            meter = CpuMeter(native_thread_id("aio-driver"), cluster.agent_pids())
            tally = cluster.driver.run_async(
                cluster.window(per_round, tag=f"round{i}", meter=meter),
                timeout=loadgen.WARMUP_S + per_round + 2 * loadgen.OP_DEADLINE_S,
            )
            audited += cluster.driver.run_async(cluster.audit(), timeout=300)[0]
        finally:
            cluster.close()
        setups.append(setup_s)
        tallies.append(tally)
        corrupt += cluster.corrupt
        loadgen.log(
            f"round {i + 1}/{loadgen.ROUNDS}: set-up {setup_s:.3f} s, "
            f"{tally.completed} ops, steal {tally.cpu['steal']:.2f} s"
        )
    metrics = end_to_end(setups, tallies)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    host = dict(
        host,
        steal_s=[round(t.cpu["steal"], 3) for t in tallies],
        window_s=round(sum(t.elapsed for t in tallies), 3),
    )
    print("host " + json.dumps(host))
    print(
        f"workload {workload.name}: "
        f"reads n={sum(len(t.read_lat) for t in tallies)} "
        f"writes n={sum(len(t.write_lat) for t in tallies)} "
        f"attempted={attempted} failed={failed} "
        f"failed_ratio={failed / attempted:.4f} "
        f"audit={audited} pages corrupt={len(corrupt)}"
    )
    for name, m in metrics.items():
        note = "  (reported, not gated)" if name in UNGATED else ""
        print(f"  {name:<16} {m['value']:12.4f} {m['unit']}{note}")
    for line in corrupt[:10] + [e for t in tallies for e in t.errors]:
        loadgen.log(line)
    return {
        "correct": not corrupt,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: m for k, m in metrics.items() if k not in UNGATED},
    }


if __name__ == "__main__":
    sys.exit(main())
