"""Exact-count self-check: the ledger still measures the program the
protocols describe.

One serial pass over each operation shape the workloads use, on a fresh
loopback cluster laid out like the benchmark's, must produce the RPC
structure the protocols imply:

- a warm ``scan-1m`` READ (1 MB, 64 KB pages, client cache warm):
  1 vm RPC, then at most ``n_data`` data RPCs, no metadata RPC;
- a cold ``fine-4k`` READ (one 4 KB page, no client cache): 1 vm RPC,
  one metadata batch per tree level, then 1 data RPC;
- a WRITE of either shape: pm -> data -> vm -> meta -> vm.

Counts are taken twice per operation: caller-side, from the batches the
driver frames, and server-side, from the wire RPCs every actor served.
The two must agree, and two passes on two fresh clusters with the same
seed must give identical counts.

Every traced run starts with it; run it alone from the repository root
with ``python3 perfbench/run.py --self-check --seed 1``.
"""

from __future__ import annotations

import os
import random

from repro.core.client import AsyncBlobClient
from repro.core.config import DeploymentSpec
from repro.deploy.tcp import build_tcp
from repro.metadata.tree import TreeGeometry
from repro.net.threaded import dest_kind
from repro.util.sizes import GB, KB, MB

import ledger
from loadgen import make_segment

WRITE_SHAPE = [("pm",), ("data",), ("vm",), ("meta",), ("vm",)]


def _served(driver) -> dict[str, int]:
    """Wire RPCs served so far, per actor kind (telemetry is a control,
    so reading it does not count)."""
    out: dict[str, int] = {}
    for address, reply in ledger.telemetry_snapshot(driver).items():
        kind = dest_kind(address)
        out[kind] = out.get(kind, 0) + reply["wire_rpcs"]
    return out


def _measure(driver, make_coro) -> dict:
    before = _served(driver)
    with ledger.BatchRecorder(log_kinds=True) as rec:
        driver.run_async(make_coro(), timeout=60)
    after = _served(driver)
    return {
        "batches": rec.kinds,
        "served": {k: after[k] - before[k] for k in after if after[k] != before[k]},
    }


def count_pass(seed: int) -> dict:
    """One serial pass over every shape on a fresh cluster."""
    n = os.cpu_count() or 1
    rng = random.Random(seed)
    counts: dict[str, dict] = {}
    with build_tcp(
        DeploymentSpec(n_data=n, n_meta=n), client="aio", control_plane="agents"
    ) as dep:
        driver = dep.driver
        scan = dep.async_client("check-scan")
        fine = AsyncBlobClient(
            driver, dep.router, name="check-fine", cache_capacity=0
        )
        blobs = {}

        async def alloc() -> None:
            blobs["scan"] = await scan.alloc(GB, 64 * KB)
            blobs["fine"] = await fine.alloc(GB, 4 * KB)

        driver.run_async(alloc(), timeout=60)
        scan_page = rng.randrange(GB // MB) * 16
        fine_page = rng.randrange(GB // (4 * KB))
        scan_data = make_segment(64 * KB, scan_page, 16, 1, 1)
        fine_data = make_segment(4 * KB, fine_page, 1, 2, 1)
        counts["write-1m"] = _measure(
            driver, lambda: scan.write(blobs["scan"], scan_data, scan_page * 64 * KB)
        )
        driver.run_async(scan.read(blobs["scan"], scan_page * 64 * KB, MB), timeout=60)
        counts["read-1m-warm"] = _measure(
            driver, lambda: scan.read(blobs["scan"], scan_page * 64 * KB, MB)
        )
        counts["write-4k"] = _measure(
            driver, lambda: fine.write(blobs["fine"], fine_data, fine_page * 4 * KB)
        )
        counts["read-4k-cold"] = _measure(
            driver, lambda: fine.read(blobs["fine"], fine_page * 4 * KB, 4 * KB)
        )
    return counts


def problems_in(counts: dict, n_data: int) -> list[str]:
    """Every way one pass departs from the structure the protocols imply."""
    out = []

    def expect(cond: bool, op: str, what: str) -> None:
        if not cond:
            out.append(f"self-check {op}: {what}; got {counts[op]}")

    for op, record in counts.items():
        caller: dict[str, int] = {}
        for kinds in record["batches"]:
            for kind in kinds:
                caller[kind] = caller.get(kind, 0) + 1
        expect(caller == record["served"], op, "caller and served RPCs differ")

    for op in ("write-1m", "write-4k"):
        shape = [tuple(sorted(set(k))) for k in counts[op]["batches"]]
        expect(shape == WRITE_SHAPE, op, "WRITE is not pm, data, vm, meta, vm")

    warm = counts["read-1m-warm"]
    expect(warm["batches"][:1] == [("vm",)], "read-1m-warm", "no leading vm RPC")
    expect(
        len(warm["batches"]) == 2 and set(warm["batches"][1]) == {"data"},
        "read-1m-warm", "not one vm batch then one data batch",
    )
    expect(warm["served"].get("data", 0) <= n_data, "read-1m-warm", "too many data RPCs")

    levels = TreeGeometry(GB, 4 * KB).depth + 1
    cold = counts["read-4k-cold"]
    expect(
        cold["batches"] == [("vm",)] + [("meta",)] * levels + [("data",)],
        "read-4k-cold", f"not vm, {levels} meta levels, data",
    )
    return out


def run_twice(seed: int) -> list[str]:
    """Two passes on two fresh clusters; returns the problems found."""
    n_data = os.cpu_count() or 1
    first = count_pass(seed)
    second = count_pass(seed)
    problems = problems_in(first, n_data)
    if first != second:
        problems.append(
            f"self-check: two seeded passes differ: {first} != {second}"
        )
    return problems
