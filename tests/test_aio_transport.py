"""Socket-client pins through the *awaited* surface of the asyncio
driver, the only client of a node-agent cluster, plus the concurrency
pins only an event loop can express.

``tests/test_tcp_transport.py`` pins the transport semantics as a
blocking caller sees them (the driver's sync facade); here the same
semantics — submission counts, typed errors over the wire, killed-peer
fail-fast drain, replica fail-over, clean shutdown exit codes, reconnect
to a restarted agent — are pinned for coroutine programs that await
:meth:`AioDriver.drive` and ``AsyncBlobClient`` ops on the loop, next to
span coverage of traced operations on both surfaces. Failure-mode
parity with the process transport is the point —
``tests/test_process_transport.py`` pins the same semantics over
socketpairs. On top of that, the event loop adds what threads cannot
afford: the 1k-coroutine stress run
— one agent SIGKILLed and restarted mid-run, every client finishing or
failing *typed*, with asyncio debug mode and warning capture proving no
task is orphaned and no coroutine left unawaited — and the pins of the
loop's own I/O: one socket write per peer per loop turn, and a drop that
takes the frames queued for that write down with it.

Everything here is wall-clock bounded: every blocking wait carries a
timeout, and the module-level watchdog (conftest.py, enabled via
``REPRO_TEST_TIMEOUT``) hard-kills a stalled run.
"""

from __future__ import annotations

import asyncio
import threading
import time
import warnings

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.tcp import build_tcp
from repro.errors import ConfigError, RemoteError, ReproError, VersionNotPublished
from repro.net.aio import AioDriver, trace_async_operation
from repro.net.node import NodeAgent
from repro.net.sansio import Batch, Call
from repro.obs.export import coverage
from repro.obs.spans import CALLER, trace_operation
from repro.providers.data_provider import DataProvider
from repro.util.sizes import KB, MB

TOTAL = 1 * MB
PAGE = 4 * KB

JOIN_TIMEOUT = 60.0


@pytest.fixture
def adep():
    dep = build_tcp(DeploymentSpec(n_data=3, n_meta=2, cache_capacity=0))
    yield dep
    dep.close()


def fill(i: int) -> bytes:
    return bytes([i % 251 + 1]) * PAGE


def _call_proto(address, method, args=()):
    def proto():
        (result,) = yield Batch([Call(address, method, args)])
        return result

    return proto()


def _acall(driver, address, method="data.stats"):
    """One RPC awaited on the driver's loop (the coroutine surface)."""
    return driver.run_async(
        driver.drive(_call_proto(address, method)), timeout=JOIN_TIMEOUT
    )


# ---------------------------------------------------------------------------
# functional sanity + submission counts (process-transport parity)
# ---------------------------------------------------------------------------


def test_serial_workload_and_submission_counts(adep):
    """Caller-side transport counters must equal agent-side wire-RPC
    counts: one queue submission (= one TCP frame for remote actors) per
    destination per batch — the exact bound the threaded and process
    drivers pin."""
    blob = adep.client("setup").alloc(TOTAL, PAGE)

    async def main():
        client = adep.async_client("pin")
        states = {}
        for step in range(6):
            data = fill(step) * 2
            offset = (step * 2 * PAGE) % TOTAL
            res = await client.write(blob, data, offset)
            states[res.version] = data
            back = await client.read_bytes(blob, offset, len(data), version=res.version)
            assert back == data
        return states

    states = adep.driver.run_async(main(), timeout=JOIN_TIMEOUT)

    stats = adep.driver.server_stats()
    served_rpcs = sum(r for r, _ in stats.values())
    served_calls = sum(c for _, c in stats.values())
    transport = adep.transport_stats()
    assert transport["queue_submissions"] == served_rpcs
    assert transport["completion_wakeups"] <= transport["batches"]
    assert served_calls >= served_rpcs
    assert adep.total_pages_stored() == sum(len(d) // PAGE for d in states.values())


def test_async_clients_interleave_on_one_loop(adep):
    """Concurrent AsyncBlobClients over disjoint ranges: coroutine
    multiplexing is real concurrency — the writes interleave on the wire
    but every program keeps read-your-writes."""
    setup = adep.client("setup")
    blob = setup.alloc(TOTAL, PAGE)
    n_clients, writes_each = 8, 3
    span = TOTAL // n_clients // PAGE * PAGE

    async def program(c):
        own = adep.async_client(f"c{c}")
        lo = c * span
        for k in range(writes_each):
            data = fill(c * 16 + k) * 2
            offset = lo + (k * 2 * PAGE) % span
            res = await own.write(blob, data, offset)
            if res.published:
                got = await own.read_bytes(blob, offset, len(data), version=res.version)
                assert got == data
        return c

    async def main():
        return await asyncio.gather(*(program(c) for c in range(n_clients)))

    results = adep.driver.run_async(main(), timeout=JOIN_TIMEOUT)
    assert sorted(results) == list(range(n_clients))
    assert adep.vm.get_latest(blob) == n_clients * writes_each


def test_batches_of_one_loop_turn_leave_in_one_write():
    """Every batch the loop's coroutines submit to one peer within one
    turn is coalesced into a single transport write, yet the agent still
    serves one wire RPC per batch (coalescing never merges frames)."""
    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    driver = AioDriver()
    address, n = ("data", 0), 16
    try:
        driver.register_remote(address, agent.endpoint)
        driver.wait_connected()
        peer = driver.peer(address)
        before = driver.server_stats()[address]
        writes: list[int] = []

        async def main():
            transport = peer._proto.transport
            real_write = transport.write

            def counting_write(data):
                writes.append(len(data))
                real_write(data)

            transport.write = counting_write
            try:
                # gather starts every protocol in the same loop turn
                return await asyncio.gather(*(
                    driver.drive(_call_proto(address, "data.stats"))
                    for _ in range(n)
                ))
            finally:
                del transport.write

        results = driver.run_async(main(), timeout=JOIN_TIMEOUT)
        assert [r["pages"] for r in results] == [0] * n
        assert len(writes) == 1, f"{n} batches took {len(writes)} writes"
        after = driver.server_stats()[address]
        assert (after[0] - before[0], after[1] - before[1]) == (n, n)
    finally:
        driver.close()
        agent.close()


def test_unknown_address_raises_before_any_submission(adep):
    def proto():
        yield Batch([Call(("data", 99), "data.stats", ())])

    before = adep.transport_stats()["queue_submissions"]
    with pytest.raises(KeyError):
        adep.driver.run_async(adep.driver.drive(proto()), timeout=JOIN_TIMEOUT)
    assert adep.transport_stats()["queue_submissions"] == before


def test_semantic_errors_cross_the_async_path_typed(adep):
    """A VersionNotPublished raised by a remote actor must come back out
    of an *awaited* read with its precise type and payload — the async
    mirror of the blocking-surface typed-error pin."""
    sync_client = adep.client("err")
    blob = sync_client.alloc(TOTAL, PAGE)

    async def main():
        client = adep.async_client("aerr")
        with pytest.raises(VersionNotPublished) as exc_info:
            await client.read_bytes(blob, 0, PAGE, version=5)
        return exc_info.value

    error = adep.driver.run_async(main(), timeout=JOIN_TIMEOUT)
    assert error.requested == 5


def test_traced_async_op_exports_parented_spans(adep):
    """Span parenting over the async path: rpc spans recorded by the
    event loop must parent to the coroutine's op span (ContextVar trace
    propagation), and caller RTTs must fold into the unified scrape."""
    client = adep.client("spans")
    blob = client.alloc(TOTAL, PAGE)
    CALLER.clear()

    async def main():
        aclient = adep.async_client("traced")
        async with trace_async_operation("aio-write") as tid:
            await aclient.write(blob, fill(1), 0)
        return tid

    tid = adep.driver.run_async(main(), timeout=JOIN_TIMEOUT)
    spans = [s for s in CALLER.snapshot() if s["trace"] == tid]
    ops = [s for s in spans if s["kind"] == "op"]
    rpcs = [s for s in spans if s["kind"] == "rpc"]
    assert len(ops) == 1 and ops[0]["name"] == "aio-write"
    assert rpcs, "no rpc spans recorded for the traced async op"
    assert all(s["parent"] == ops[0]["span"] for s in rpcs)
    assert all(
        ops[0]["start_ns"] <= s["start_ns"] <= s["end_ns"] <= ops[0]["end_ns"]
        for s in rpcs
    )
    # the unified scrape picks up the aio driver's RTT histograms
    doc = adep.metrics()
    assert "caller_rtt" in doc and doc["caller_rtt"], "caller RTTs missing"


def test_traced_ops_cover_their_client_compute(adep):
    """A traced op's spans must explain >= 95 % of its wall time (the
    ``repro.tools.trace --check`` floor) on both client surfaces: the
    compute between batches runs on the event loop, so the driver itself
    must record it as ``client`` spans — rpc spans alone leave a third
    of an 8 KB write uncovered."""
    client = adep.client("cov")
    blob = client.alloc(TOTAL, PAGE)
    aclient = adep.async_client("acov")
    client.write(blob, fill(1) * 2, 0)  # warm-up: first touch is not traced

    async def traced_async_write():
        async with trace_async_operation("async-write") as tid:
            await aclient.write(blob, fill(3) * 2, 0)
        return tid

    CALLER.clear()
    with trace_operation("sync-write") as sync_tid:
        client.write(blob, fill(2) * 2, 0)
    async_tid = adep.driver.run_async(traced_async_write(), timeout=JOIN_TIMEOUT)
    cov = coverage(CALLER.snapshot())
    for name, tid in (("sync", sync_tid), ("async", async_tid)):
        assert cov[tid] >= 0.95, f"{name} traced write covers {cov[tid]:.1%}"


# ---------------------------------------------------------------------------
# shutdown
# ---------------------------------------------------------------------------


def test_clean_shutdown_exits_all_agents():
    dep = build_tcp(DeploymentSpec(n_data=2, n_meta=2))
    blob = dep.client("s").alloc(TOTAL, PAGE)
    client = dep.async_client("as")
    dep.driver.run_async(client.write(blob, fill(1), 0), timeout=JOIN_TIMEOUT)
    dep.close()
    codes = dep.agent_exitcodes()
    assert len(codes) == 2  # colocated: agent i hosts data/i + meta/i
    assert all(code == 0 for code in codes), codes
    # closing twice is harmless
    dep.close()


def test_driver_rejects_registration_after_close():
    driver = AioDriver()
    driver.close()
    with pytest.raises(RuntimeError):
        driver.register_remote(("data", 0), "127.0.0.1:1")
    with pytest.raises(RuntimeError):
        driver.register(("data", 0), DataProvider(0))


def test_build_tcp_rejects_unknown_client():
    for name in ("curio", "threaded"):
        with pytest.raises(ConfigError):
            build_tcp(DeploymentSpec(n_data=1, n_meta=1), client=name)


# ---------------------------------------------------------------------------
# crash handling: killed agent -> RemoteError -> replica fail-over
# ---------------------------------------------------------------------------


def test_killed_agent_raises_remote_error(adep):
    client = adep.client("kill")
    blob = client.alloc(TOTAL, PAGE)
    res = client.write(blob, fill(9), 0)
    holders = [
        pid for pid, proxy in adep.data.items()
        if any(True for _ in proxy.iter_pages(blob))
    ]
    assert len(holders) == 1
    victim = holders[0]
    adep.kill_agent(adep.agent_index_for(("data", victim)))
    aclient = adep.async_client("akill")
    with pytest.raises(RemoteError) as exc_info:
        adep.driver.run_async(
            aclient.read_bytes(blob, 0, PAGE, version=res.version),
            timeout=JOIN_TIMEOUT,
        )
    assert "PeerUnavailable" in str(exc_info.value)
    # vm is alive in-parent
    assert adep.vm.get_latest(blob) == 1


def test_killed_agent_fails_over_to_replica():
    """The paper's replica fail-over through the async path: with
    replication=2 an awaited read must survive one agent's SIGKILL via
    the ``allow_error`` retry — no thread pool involved."""
    dep = build_tcp(
        DeploymentSpec(n_data=3, n_meta=2, replication=2, cache_capacity=0)
    )
    try:
        client = dep.client("failover")
        blob = client.alloc(TOTAL, PAGE)
        data = fill(3) + fill(4)
        res = client.write(blob, data, 0)
        victim = next(
            pid for pid, proxy in dep.data.items()
            if any(True for _ in proxy.iter_pages(blob))
        )
        dep.kill_agent(dep.agent_index_for(("data", victim)))

        async def main():
            aclient = dep.async_client("afailover")
            return await aclient.read_bytes(blob, 0, len(data), version=res.version)

        assert dep.driver.run_async(main(), timeout=JOIN_TIMEOUT) == data
    finally:
        dep.close()


def test_future_calls_fail_fast_after_agent_death():
    """Calls against a dead peer must fail immediately with RemoteError —
    never block behind a redial attempt (fail-over latency)."""
    dep = build_tcp(DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0))
    try:
        client = dep.client("inflight")
        blob = client.alloc(TOTAL, PAGE)
        client.write(blob, fill(5), 0)
        address = ("data", 0)
        dep.kill_agent(dep.agent_index_for(address))
        # wait (bounded) for the peer to notice the EOF
        deadline = time.monotonic() + 10
        while dep.driver.peer(address).connected and time.monotonic() < deadline:
            time.sleep(0.01)
        for _ in range(3):
            start = time.monotonic()
            with pytest.raises(RemoteError):
                _acall(dep.driver, address)
            assert time.monotonic() - start < 2.0, "dead-peer call did not fail fast"
    finally:
        dep.close()


def test_in_flight_calls_drain_when_connection_dies():
    """A call already on the wire when the connection dies mid-batch must
    complete with RemoteError, not hang the batch latch — the loop's
    receive-EOF drain, driven deterministically with an actor that blocks
    until the connection is severed under it."""

    class Staller:
        def __init__(self):
            self.entered = threading.Event()
            self.release = threading.Event()

        def handle(self, method, args):
            if method == "stall":
                self.entered.set()
                self.release.wait(JOIN_TIMEOUT)
                return "too late"
            raise ValueError(method)

    staller = Staller()
    agent = NodeAgent({("data", 0): staller})
    agent.start()
    driver = AioDriver()
    try:
        driver.register_remote(("data", 0), agent.endpoint)
        driver.wait_connected()
        fut = asyncio.run_coroutine_threadsafe(
            driver.drive(_call_proto(("data", 0), "stall")), driver.loop
        )
        assert staller.entered.wait(JOIN_TIMEOUT), "call never reached the actor"
        agent.drop_connections()  # sever mid-call: reply can never arrive
        with pytest.raises(RemoteError):
            fut.result(timeout=JOIN_TIMEOUT)
    finally:
        staller.release.set()
        driver.close()
        agent.close()


def test_drop_discards_frames_queued_for_the_flush():
    """A connection dropped while frames wait for this turn's flush takes
    them down with it: every queued call completes as
    ``RemoteError("PeerUnavailable")``, and the redialed agent never
    serves any of them — they are not replayed onto the new socket."""
    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    driver = AioDriver()
    address, n = ("data", 0), 8
    try:
        driver.register_remote(address, agent.endpoint)
        driver.wait_connected()
        peer = driver.peer(address)
        before = driver.server_stats()[address]
        queued_at_drop: list[int] = []
        real_mark_down = peer._mark_down

        def spying_mark_down(reason):
            queued_at_drop.append(len(peer._outbox))
            real_mark_down(reason)

        async def main():
            tasks = [
                asyncio.ensure_future(
                    driver.drive(_call_proto(address, "data.stats"))
                )
                for _ in range(n)
            ]
            # the drain lands in the next turn right behind the tasks'
            # submits, ahead of the flush their first submit schedules
            peer._mark_down = spying_mark_down
            peer.drop()
            try:
                return await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True), JOIN_TIMEOUT
                )
            finally:
                del peer._mark_down

        results = driver.run_async(main(), timeout=JOIN_TIMEOUT)
        assert queued_at_drop[:1] == [n], "frames were not queued at the drop"
        assert all(isinstance(r, RemoteError) for r in results), results
        assert all("PeerUnavailable" in str(r) for r in results)

        assert peer.wait_connected(timeout=15), "connector did not redial"
        assert driver.call(address, "data.stats")["pages"] == 0
        # same connection, served in order: a replayed frame would have
        # been served ahead of this call
        after = driver.server_stats()[address]
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
    finally:
        driver.close()
        agent.close()


# ---------------------------------------------------------------------------
# reconnect: service resumes without a client restart
# ---------------------------------------------------------------------------


def test_peer_reconnects_after_agent_restart():
    """While the agent is gone calls drain as RemoteError; once an agent
    serving the same actor name is back on the same endpoint, the
    connector task's backoff redial finds it and service resumes — no
    driver restart, no re-register."""
    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    port = agent.endpoint.port
    driver = AioDriver()
    try:
        driver.register_remote(("data", 0), agent.endpoint)
        driver.wait_connected()
        assert _acall(driver, ("data", 0))["pages"] == 0

        agent.close()  # the "host went down" event: listener + conns die
        deadline = time.monotonic() + 10
        while driver.peer(("data", 0)).connected and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(RemoteError):
            _acall(driver, ("data", 0))
        assert driver.peer_status()[("data", 0)] != "connected"

        # restart: a fresh agent, same actor name, same endpoint
        revived = NodeAgent({("data", 0): DataProvider(0)}, port=port)
        revived.start()
        try:
            assert driver.peer(("data", 0)).wait_connected(timeout=15), (
                "connector did not redial the revived agent"
            )
            assert _acall(driver, ("data", 0))["pages"] == 0
            assert driver.peer_status()[("data", 0)] == "connected"
        finally:
            revived.close()
    finally:
        driver.close()
        agent.close()


def test_handshake_reject_for_unknown_actor():
    """An agent must reject a hello for an actor it does not host; the
    peer stays down (fail-fast) instead of looping a broken connection."""
    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    driver = AioDriver()
    try:
        driver.register_remote(("data", 7), agent.endpoint)
        assert not driver.peer(("data", 7)).wait_connected(timeout=0.6)
        with pytest.raises(RemoteError) as exc_info:
            _acall(driver, ("data", 7))
        assert "PeerUnavailable" in str(exc_info.value)
    finally:
        driver.close()
        agent.close()


# ---------------------------------------------------------------------------
# the 1k-coroutine stress run: kill + restart mid-run, nothing orphaned
# ---------------------------------------------------------------------------

N_STRESS_CLIENTS = 1000
STRESS_AGENTS = 8


def test_thousand_clients_survive_agent_restart():
    """1000 concurrent client coroutines against an 8-agent loopback
    cluster, one storage agent SIGKILLed after a third of the clients
    finished and restarted before the last third starts. Every client
    must finish or fail *typed* (``ReproError``), and the run must leave
    nothing behind: asyncio debug mode is on, the loop's exception
    handler must stay silent (no destroyed-pending-task reports), and no
    never-awaited-coroutine warning may be emitted."""
    spec = DeploymentSpec(
        n_data=STRESS_AGENTS, n_meta=2, cache_capacity=0, colocate=False
    )
    dep = build_tcp(spec)
    loop_trouble: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            dep.driver.set_debug(True)
            dep.driver.loop.call_soon_threadsafe(
                dep.driver.loop.set_exception_handler,
                lambda loop, ctx: loop_trouble.append(ctx.get("message", repr(ctx))),
            )
            setup = dep.client("setup")
            blob = setup.alloc(TOTAL, PAGE)
            npages = TOTAL // PAGE

            finished: list[int] = []  # appended on the loop thread only
            gate_box: dict = {}  # {"event": asyncio.Event created on the loop}

            async def client_program(i):
                if i >= 2 * N_STRESS_CLIENTS // 3:
                    # the last third runs against the *revived* cluster
                    await asyncio.wait_for(
                        gate_box["event"].wait(), JOIN_TIMEOUT
                    )
                client = dep.async_client(f"s{i}")
                data = fill(i)
                offset = (i % npages) * PAGE
                try:
                    res = await client.write(blob, data, offset)
                    got = await client.read_bytes(
                        blob, offset, PAGE, version=res.version
                    )
                    assert got == data
                    return "ok"
                finally:
                    finished.append(i)

            async def main():
                gate_box["event"] = asyncio.Event()
                tasks = [
                    asyncio.create_task(client_program(i), name=f"client-{i}")
                    for i in range(N_STRESS_CLIENTS)
                ]
                return await asyncio.gather(*tasks, return_exceptions=True)

            fut = asyncio.run_coroutine_threadsafe(main(), dep.driver.loop)

            # kill one storage agent after ~a third of the clients are done
            deadline = time.monotonic() + JOIN_TIMEOUT
            while len(finished) < N_STRESS_CLIENTS // 3:
                assert time.monotonic() < deadline, "stress run stalled pre-kill"
                time.sleep(0.01)
            victim = ("data", STRESS_AGENTS - 1)
            idx = dep.agent_index_for(victim)
            dep.kill_agent(idx)
            deadline = time.monotonic() + 15
            while dep.driver.peer(victim).connected and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not dep.driver.peer(victim).connected

            dep.restart_agent(idx)
            assert dep.driver.peer(victim).wait_connected(timeout=15), (
                "connector did not redial the restarted agent"
            )
            dep.driver.loop.call_soon_threadsafe(gate_box["event"].set)

            results = fut.result(timeout=JOIN_TIMEOUT * 2)
            assert len(results) == N_STRESS_CLIENTS
            untyped = [
                r for r in results
                if isinstance(r, BaseException) and not isinstance(r, ReproError)
            ]
            assert untyped == [], f"untyped failures: {untyped[:5]}"
            oks = sum(1 for r in results if r == "ok")
            # the cluster must have kept serving around the dead agent and
            # fully recovered for the post-restart cohort
            assert oks >= N_STRESS_CLIENTS // 2, f"only {oks} clients succeeded"
            assert len(finished) == N_STRESS_CLIENTS
        finally:
            if "event" in gate_box:  # unblock any gated cohort on failure
                dep.driver.loop.call_soon_threadsafe(gate_box["event"].set)
            dep.close()

    assert loop_trouble == [], f"event-loop reports: {loop_trouble[:5]}"
    leaks = [
        str(w.message) for w in caught
        if "never awaited" in str(w.message) or "Task was destroyed" in str(w.message)
    ]
    assert leaks == [], f"leaked coroutines/tasks: {leaks[:5]}"
