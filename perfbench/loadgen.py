"""Workloads, self-describing pages, the loopback cluster and the
closed-loop load generator.

One process drives the whole load: ``AsyncBlobClient`` coroutines on the
aio driver's single event loop against a real loopback TCP cluster of
node-agent OS processes (``nproc`` colocated data+meta agents, the vm
and pm on agents of their own). Each client sends its next operation
only after the previous one returned (closed loop).

Every page written carries a header (page index, writer, seq) and a fill
derived from it, so any page read back can be checked against its
position without a reference copy, and the final audit can compare the
whole window with the highest-versioned completed write of each page.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import struct
import sys
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.core.config import DeploymentSpec
from repro.core.protocol import LATEST
from repro.deploy.tcp import build_tcp
from repro.metadata.cache import DEFAULT_CAPACITY
from repro.util.sizes import GB, KB, MB

#: logical size of the benchmark blob (storage is allocated on write)
BLOB_SIZE = 1 * GB
#: an operation still pending after this long counts as failed
OP_DEADLINE_S = 30.0
#: preload and audit move the window in segments of this size
BULK_BYTES = 4 * MB
#: concurrent preload writes
PRELOAD_DEPTH = 4
#: load that runs before each timed window, so the window starts warm
WARMUP_S = 1.0
#: rounds an untraced run's metrics pool, each a fresh cluster timed for
#: ``--seconds / ROUNDS``: more measured work per run than one cluster's
#: memory allows (agents keep every page written)
ROUNDS = 3
#: the ``trace=`` phase dict of the client's last READ or WRITE in this
#: task; set only while the ledger's tracer wraps the protocols
PHASES: ContextVar[dict | None] = ContextVar("perfbench_phases", default=None)


@dataclass(frozen=True)
class Workload:
    """One traffic mix: page and op size, window, clients, read share."""

    name: str
    pagesize: int
    op_pages: int
    window: int
    clients: int
    read_share: float
    cache_capacity: int

    @property
    def op_size(self) -> int:
        return self.pagesize * self.op_pages

    @property
    def slots(self) -> int:
        """Op-aligned offsets inside the window."""
        return self.window // self.op_size


WORKLOADS = {
    w.name: w
    for w in (
        # bytes-bound image-tile access (paper Fig. 3(c)): descents hit
        # the warmed client cache, the data path does the work
        Workload("scan-1m", 64 * KB, 16, 64 * MB, 8, 0.75, DEFAULT_CAPACITY),
        # per-RPC cost: an 18-level tree, no client cache, one-page ops
        Workload("fine-4k", 4 * KB, 1, 16 * MB, 64, 0.80, 0),
        # the write path: pm allocation, page puts, vm assign/complete
        Workload("ingest-256k", 64 * KB, 4, 64 * MB, 16, 0.10, DEFAULT_CAPACITY),
    )
}


# ---------------------------------------------------------------------------
# self-describing pages
# ---------------------------------------------------------------------------

_HEADER = struct.Struct(">4sQIQ")  # magic, page index, writer, seq
_MAGIC = b"pbpg"
_WORD = struct.Struct(">Q")
_MASK = (1 << 64) - 1


class CorruptPage(Exception):
    """A page read back does not match its position or its own header."""


def _fill(pagesize: int, index: int, writer: int, seq: int) -> bytes:
    word = (index * 0x9E3779B97F4A7C15 ^ writer << 40 ^ seq * 0xBF58476D1CE4E5B9)
    return _WORD.pack(word & _MASK) * ((pagesize - _HEADER.size) // _WORD.size)


def make_page(pagesize: int, index: int, writer: int, seq: int) -> bytes:
    """The page ``writer`` stores at ``index`` in its write number ``seq``."""
    return _HEADER.pack(_MAGIC, index, writer, seq) + _fill(
        pagesize, index, writer, seq
    )


def make_segment(pagesize: int, first: int, npages: int, writer: int, seq: int) -> bytes:
    return b"".join(
        make_page(pagesize, first + i, writer, seq) for i in range(npages)
    )


def check_page(page: bytes, pagesize: int, index: int) -> tuple[int, int]:
    """Verify one page read at ``index``; returns its ``(writer, seq)``."""
    if len(page) != pagesize:
        raise CorruptPage(f"page {index}: {len(page)} B, expected {pagesize}")
    magic, got, writer, seq = _HEADER.unpack_from(page)
    if magic != _MAGIC or got != index:
        raise CorruptPage(f"page {index}: header says page {got} ({magic!r})")
    if page[_HEADER.size :] != _fill(pagesize, index, writer, seq):
        raise CorruptPage(f"page {index}: fill does not match its header")
    return writer, seq


# ---------------------------------------------------------------------------
# per-window tallies
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """What one timed window did.

    Latencies (seconds) are kept for the ops that *started* inside the
    window ``[start, end)``; bytes and ``completed`` count the ops that
    *finished* inside it. ``attempted`` and ``failed`` count every op
    the window's clients issued, warm-up and tail included.
    """

    start: float = 0.0
    end: float = 0.0
    read_lat: list[float] = field(default_factory=list)
    write_lat: list[float] = field(default_factory=list)
    read_bytes: int = 0
    write_bytes: int = 0
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: CPU seconds over the window (see procstat.CpuMeter.delta)
    cpu: dict | None = None
    #: traced windows only: phase dicts filled by the protocols' ``trace=``
    read_phases: list[dict] = field(default_factory=list)
    write_phases: list[dict] = field(default_factory=list)
    nodes_per_read: list[int] = field(default_factory=list)
    nodes_per_write: list[int] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def fail(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(exc))

    def record(
        self, is_read: bool, t0: float, t1: float, nbytes: int,
        phases: dict | None, nodes: int,
    ) -> None:
        self.attempted += 1
        if self.start <= t0:
            if is_read:
                self.read_lat.append(t1 - t0)
            else:
                self.write_lat.append(t1 - t0)
            if phases is not None:
                if is_read:
                    self.read_phases.append(phases)
                    self.nodes_per_read.append(nodes)
                else:
                    self.write_phases.append(phases)
                    self.nodes_per_write.append(nodes)
        if self.start <= t1 < self.end:
            self.completed += 1
            if is_read:
                self.read_bytes += nbytes
            else:
                self.write_bytes += nbytes


def quantile(samples: list[float], p: float) -> float:
    """Nearest-rank quantile of unsorted samples."""
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(p * len(ordered) - 1e-9)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# the cluster under load
# ---------------------------------------------------------------------------


class Cluster:
    """A launched loopback cluster, its blob, clients and expected state.

    All mutable state is touched only from the driver's event loop.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.wl = workload
        self.seed = seed
        n_storage = os.cpu_count() or 1
        self.dep = build_tcp(
            DeploymentSpec(
                n_data=n_storage,
                n_meta=n_storage,
                cache_capacity=workload.cache_capacity,
            ),
            client="aio",
            control_plane="agents",
        )
        self.driver = self.dep.driver
        self.blob = ""
        self.clients: list = []
        #: (writer, seq) -> (first page, pages) of every write issued
        self.issued: dict[tuple[int, int], tuple[int, int]] = {}
        #: page -> (version, writer, seq) of its highest completed write
        self.best: dict[int, tuple[int, int, int]] = {}
        #: pages touched by a write that failed (its outcome is unknown)
        self.uncertain: set[int] = set()
        self.corrupt: list[str] = []
        self.seqs = [0] * (workload.clients + 1)

    def agent_pids(self) -> dict[str, int]:
        return {
            "+".join(a.actor_names): a.proc.pid for a in self.dep.agents
        }

    def close(self) -> None:
        self.dep.close()

    # -- set-up ---------------------------------------------------------

    async def prepare(self) -> None:
        """Alloc, preload the window, warm the client caches."""
        wl = self.wl
        setup = self.dep.async_client("setup")
        self.setup_client = setup
        self.blob = await setup.alloc(BLOB_SIZE, wl.pagesize)
        bulk_pages = BULK_BYTES // wl.pagesize
        starts = list(range(0, wl.window // wl.pagesize, bulk_pages))
        queue = iter(starts)

        async def preload_worker() -> None:
            for first in queue:
                await self.write(setup, 0, first, bulk_pages, None)

        await asyncio.gather(*(preload_worker() for _ in range(PRELOAD_DEPTH)))
        self.clients = [
            self.dep.async_client(f"c{i + 1}") for i in range(wl.clients)
        ]
        for client in self.clients:
            await client.open(self.blob)
        if setup.cache is not None:
            for first in starts:
                await self.read(setup, first * wl.pagesize, BULK_BYTES, None)
            for client in self.clients:
                client.cache.preload_from(setup.cache)

    # -- operations -----------------------------------------------------

    async def write(
        self, client, writer: int, first: int, npages: int, tally: Tally | None,
    ) -> None:
        ps = self.wl.pagesize
        seq = self.seqs[writer] = self.seqs[writer] + 1
        data = make_segment(ps, first, npages, writer, seq)
        self.issued[(writer, seq)] = (first, npages)
        PHASES.set(None)
        t0 = time.perf_counter()
        try:
            async with asyncio.timeout(OP_DEADLINE_S):
                result = await client.write(self.blob, data, first * ps)
        except Exception as exc:  # any failure or the deadline: counted
            self.uncertain.update(range(first, first + npages))
            if tally is None:
                raise
            tally.fail(exc)
            return
        t1 = time.perf_counter()
        best = self.best
        entry = (result.version, writer, seq)
        for page in range(first, first + npages):
            old = best.get(page)
            if old is None or old[0] < result.version:
                best[page] = entry
        if tally is not None:
            tally.record(
                False, t0, t1, len(data), PHASES.get(), result.nodes_written
            )

    async def read(
        self, client, offset: int, size: int, tally: Tally | None,
        version: int = LATEST,
    ):
        PHASES.set(None)
        t0 = time.perf_counter()
        try:
            async with asyncio.timeout(OP_DEADLINE_S):
                result = await client.read(
                    self.blob, offset, size, version=version
                )
        except Exception as exc:  # any failure or the deadline: counted
            if tally is None:
                raise
            tally.fail(exc)
            return None
        t1 = time.perf_counter()
        headers = self.check_read(offset, result.data)
        if tally is not None:
            tally.record(
                True, t0, t1, size, PHASES.get(), result.nodes_fetched
            )
        return headers

    def check_read(self, offset: int, data: bytes) -> list[tuple[int, int]]:
        """Check every page of a READ; returns their ``(writer, seq)``."""
        ps = self.wl.pagesize
        first = offset // ps
        headers = []
        for i in range(len(data) // ps):
            index = first + i
            try:
                writer, seq = check_page(data[i * ps : (i + 1) * ps], ps, index)
                span = self.issued.get((writer, seq))
                if span is None or not span[0] <= index < span[0] + span[1]:
                    raise CorruptPage(
                        f"page {index}: holds ({writer}, {seq}), "
                        "which never wrote it"
                    )
            except CorruptPage as exc:
                self.corrupt.append(str(exc))
                writer = seq = -1
            headers.append((writer, seq))
        return headers

    # -- the timed window -----------------------------------------------

    async def window(self, seconds: float, tag: str, meter=None) -> Tally:
        """Run every client closed-loop for ``WARMUP_S`` and then for the
        timed ``seconds``; ``meter`` (a procstat.CpuMeter) is sampled on
        the loop at both edges of the timed part."""
        wl = self.wl
        now = time.perf_counter
        tally = Tally(start=now() + WARMUP_S)
        tally.end = t_end = tally.start + seconds

        async def edges() -> None:
            await asyncio.sleep(tally.start - now())
            first = meter.sample() if meter is not None else None
            await asyncio.sleep(t_end - now())
            if meter is not None:
                tally.cpu = meter.delta(first, meter.sample())

        async def client_loop(idx: int) -> None:
            client = self.clients[idx]
            writer = idx + 1
            rng = random.Random(f"{self.seed}/{wl.name}/{tag}/{idx}")
            while now() < t_end:
                is_read = rng.random() < wl.read_share
                slot = rng.randrange(wl.slots)
                if is_read:
                    await self.read(client, slot * wl.op_size, wl.op_size, tally)
                else:
                    await self.write(
                        client, writer, slot * wl.op_pages, wl.op_pages, tally
                    )

        await asyncio.gather(
            edges(), *(client_loop(i) for i in range(wl.clients))
        )
        return tally

    # -- the final audit ------------------------------------------------

    async def audit(self) -> tuple[int, int]:
        """Read the whole window at the latest version and compare every
        page with the highest-versioned completed write of that page.
        Returns ``(pages checked, latest version)``."""
        wl = self.wl
        expected_latest = max(v for v, _, _ in self.best.values())
        latest = await self.setup_client.latest(self.blob)
        if latest != expected_latest and not self.uncertain:
            self.corrupt.append(
                f"latest version {latest}, but the highest completed "
                f"write is version {expected_latest}"
            )
        checked = 0
        for offset in range(0, wl.window, BULK_BYTES):
            headers = await self.read(
                self.setup_client, offset, BULK_BYTES, None, version=latest
            )
            first = offset // wl.pagesize
            for i, got in enumerate(headers):
                page = first + i
                checked += 1
                if page in self.uncertain:
                    continue  # self-consistency was checked by the read
                _, writer, seq = self.best[page]
                if got != (writer, seq):
                    self.corrupt.append(
                        f"page {page}: holds {got} at version {latest}, "
                        f"expected the last completed write {(writer, seq)}"
                    )
        return checked, latest


def launch(workload: Workload, seed: int) -> tuple[Cluster, float]:
    """Launch, connect, alloc, preload and warm; returns the cluster and
    the set-up time in seconds (until the timed window may open)."""
    t0 = time.perf_counter()
    cluster = Cluster(workload, seed)
    try:
        cluster.driver.run_async(cluster.prepare(), timeout=120)
    except BaseException:
        cluster.close()
        raise
    return cluster, time.perf_counter() - t0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
