"""Asyncio client driver: one event loop multiplexing every TCP peer.

The ninth certified configuration and the first driver built for *client
scale* rather than actor placement: the blocking drivers dedicate two
threads per connection (sender + receiver) and one caller thread per
in-flight protocol, which tops out around the paper's 64 clients; this
driver runs a single event-loop thread that multiplexes all peer sockets
and any number of client coroutines — 10k concurrent client programs are
ordinary (`benchmarks/test_many_clients.py` sweeps exactly that).

Nothing about the *protocol* changes, which is the point of the sans-io
layering:

- the wire format is the untouched :mod:`repro.net.codec` pickle frames,
  parsed by the same :class:`~repro.net.codec.MessageDecoder` the
  blocking drivers feed (here through its ``get_buffer``/
  ``buffer_updated`` pair, which exercises partial-read reassembly much
  harder — pinned by the codec fuzz test);
- batches execute exactly the groups :func:`~repro.net.sansio.plan_wire_groups`
  plans — one frame per destination per batch — so wire-RPC counts are
  bit-equal to every other driver (pinned by the conformance suite);
- failure semantics mirror :class:`~repro.net.tcp.TcpPeer`: a dead
  connection drains every in-flight call as
  :class:`~repro.errors.RemoteError`, later calls fail fast while the
  peer is down, and a connector task redials with exponential backoff so
  a restarted agent resumes service with no driver restart.

Concurrency model: **everything about a peer is event-loop-confined**,
so there are no locks on the hot path, and the loop pays as little as
possible per frame:

- *one write per peer per loop turn.* A submit encodes its frame onto
  the peer's outbox; the first frame of a turn schedules one flush, which
  hands every frame queued that turn to the transport in submit order as
  a single write (one ``send`` while the socket buffer has room). A drop discards the unflushed outbox
  together with the calls it drains, so nothing is replayed onto a
  redialed socket.
- *reply routing in the transport callback.* Each connection is an
  ``asyncio.BufferedProtocol`` (dial and handshake included): the kernel
  reads into the decoder's buffer, and ``buffer_updated`` slices each
  whole reply out once, as ``bytes``, and completes its pending call on
  the spot — no reader task, no chunk copies.
- *loop-native latches.* A batch awaits a loop future that its last
  group completion resolves directly. Only in-parent actors' service
  threads, the one cross-thread completion source, hop onto the loop
  with ``call_soon_threadsafe``; the connected/down state the sync
  facade reads is mirrored in a ``threading.Event``.

Two client surfaces share the driver:

- **async-native**: :meth:`AioDriver.drive` is an awaitable protocol
  executor; :class:`~repro.core.client.AsyncBlobClient` (re-exported
  here) wraps it in awaitable ``read``/``write``/``read_into`` methods.
  Client coroutines must run on the driver's loop (``run_async`` /
  ``spawn`` put them there).
- **sync facade**: :meth:`AioDriver.run` and :meth:`AioDriver.spawn`
  match the :class:`~repro.net.threaded.ThreadedDriver` surface exactly
  — protocol in, result out, ``ProtocolFuture``-shaped handle — which is
  what lets the conformance suite replay its seeded workloads unchanged
  and lets :func:`repro.deploy.tcp.build_tcp` swap this driver in with
  ``client="aio"``.

Observability parity: caller RTT histograms fold into
:meth:`AioDriver.caller_rtt` (the PR 8 metrics scrape reads them like
any driver's), and traced operations — either a thread-side
:func:`repro.obs.spans.trace_operation` around the sync facade or an
async-side :func:`trace_async_operation` around awaited ops — export
rpc spans with the same parenting as the blocking drivers. Because the
wire activity happens off the calling thread, the sync facade closes the
caller's coverage watermark over the whole driver-run window via
:func:`repro.obs.spans.advance_op_mark`.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from contextlib import asynccontextmanager
from contextvars import ContextVar
from typing import Any, AsyncIterator, Callable, Mapping

from repro.errors import RemoteError, ReproError
from repro.net.address import Endpoint, format_actor, parse_endpoint
from repro.net.codec import (
    MessageDecoder,
    WireCodecError,
    decode_body,
    encode_message,
)
from repro.net.node import HANDSHAKE_REQ_ID, HandshakeError
from repro.net.sansio import (
    Actor,
    Address,
    Batch,
    Call,
    Compute,
    Mark,
    Protocol,
    WireGroup,
    deliver,
    plan_wire_groups,
)
from repro.net.tcp import BACKOFF_INITIAL, BACKOFF_MAX
from repro.net.threaded import _ServerThread, dest_kind
from repro.net.wire import (
    CTL_SHUTDOWN,
    CTL_STATS,
    CTL_TELEMETRY,
    RemoteActorDriver,
    tune_socket,
)
from repro.obs.hist import LatencyHistogram, merge_all
from repro.obs.spans import (
    CALLER,
    advance_op_mark,
    make_span,
    new_span_id,
    record_rpc_span,
    span_now,
    to_span_ns,
)
from repro.obs.telemetry import telemetry_of
from repro.obs.trace import current_op_span, current_trace, new_trace_id

__all__ = [
    "AioDriver",
    "AioPeer",
    "AioProtocolFuture",
    "AsyncBlobClient",
    "trace_async_operation",
]


def __getattr__(name: str) -> Any:
    # Lazy re-export of the async client surface: repro.core.client sits
    # above the net layer (it imports the protocol stack), so importing
    # it at module top would cycle through package init.
    if name == "AsyncBlobClient":
        from repro.core.client import AsyncBlobClient

        return AsyncBlobClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: (trace_id, op_span_id) of the async operation open in this task's
#: context — the event-loop analogue of the thread-local trace context
#: (one coroutine chain = one logical operation).
_task_trace: ContextVar[tuple[int, int] | None] = ContextVar(
    "repro_aio_trace", default=None
)


@asynccontextmanager
async def trace_async_operation(
    name: str,
    trace_id: int | None = None,
    *,
    collector: Callable[[dict[str, Any]], None] | None = None,
) -> AsyncIterator[int]:
    """Trace one logical async operation (the coroutine-side twin of
    :func:`repro.obs.spans.trace_operation`).

    Thread-locals cannot carry trace context on an event loop — thousands
    of coroutines interleave on one thread — so the context rides a
    ``contextvars.ContextVar`` instead: every batch the surrounded
    coroutine drives through :meth:`AioDriver.drive` carries the trace id
    on its wire envelopes and records rpc spans parented to the op span,
    exactly like a traced thread on the blocking drivers. On exit the
    op's own span is recorded into the caller buffer (or handed to
    ``collector``). Yields the trace id.
    """
    tid = trace_id if trace_id is not None else new_trace_id()
    sid = new_span_id()
    token = _task_trace.set((tid, sid))
    t0 = span_now()
    failed = False
    try:
        yield tid
    except BaseException:
        failed = True
        raise
    finally:
        t1 = span_now()
        _task_trace.reset(token)
        record = collector or CALLER.record
        record(
            make_span(tid, sid, None, "op", name, "client", t0, t1, error=failed)
        )


class _AioLatch:
    """Per-batch countdown resolving a loop future.

    Group completions mostly arrive on the loop thread (replies routed in
    the transport callback, fail-fast submits) and count down in place;
    the last one resolves :attr:`future` directly, with no self-pipe
    wakeup. Only an in-parent actor's service thread hops onto the loop
    first (``call_soon_threadsafe``), so the count is loop-confined and
    lock-free. The ``gen`` argument exists for handle-contract
    compatibility with :class:`~repro.net.threaded._BatchLatch` (one latch
    per batch here, so generations are moot).
    """

    __slots__ = ("_loop", "_owner", "_pending", "future")

    def __init__(self, loop: asyncio.AbstractEventLoop, n_groups: int) -> None:
        self._loop = loop
        self._owner = threading.get_ident()  # built on the loop thread
        self._pending = n_groups
        #: resolved when the last group completes (the batch awaits it)
        self.future: asyncio.Future = loop.create_future()

    def group_done(self, gen: int) -> None:
        if threading.get_ident() != self._owner:
            self._loop.call_soon_threadsafe(self.group_done, gen)
            return
        self._pending -= 1
        # a cancelled batch task cancelled the future: nobody to release
        if not self._pending and not self.future.done():
            self.future.set_result(None)


class _PeerProtocol(asyncio.BufferedProtocol):
    """One connection of an :class:`AioPeer`, dial to hang-up.

    The transport reads straight into the
    :class:`~repro.net.codec.MessageDecoder`'s buffer, and
    :meth:`buffer_updated` routes every whole message inside the
    transport callback: no reader task, no intermediate chunk copies.
    Until the peer installs this connection, the only message it can
    carry is the handshake reply, which resolves :attr:`welcome`;
    :attr:`closed` resolves when the connection ends. Both resolve to
    None on an early hang-up, so no future is ever left holding an
    unretrieved exception.
    """

    def __init__(self, peer: "AioPeer") -> None:
        self._peer = peer
        self._decoder = MessageDecoder()
        self.transport: asyncio.Transport | None = None
        self.welcome: asyncio.Future = peer._loop.create_future()
        self.closed: asyncio.Future = peer._loop.create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            tune_socket(sock)
        transport.write(
            encode_message(HANDSHAKE_REQ_ID, ("hello", self._peer.actor_name))
        )

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._decoder.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        peer = self._peer
        pending = peer._pending
        try:
            for req_id, body in self._decoder.buffer_updated(nbytes):
                if peer._proto is not self:
                    if not self.welcome.done():
                        self.welcome.set_result(body)
                    continue
                entry = pending.pop(req_id, None)
                if entry is not None:
                    peer._complete(entry, body)
        except WireCodecError as exc:
            if peer._proto is self:
                peer._mark_down(
                    f"peer {peer.actor_name}@{peer.endpoint} sent a corrupt "
                    f"message: {exc}"
                )
            else:
                self.transport.abort()

    def connection_lost(self, exc: Exception | None) -> None:
        for fut in (self.welcome, self.closed):
            if not fut.done():
                fut.set_result(None)


class AioPeer:
    """One remote actor on the event loop: a :class:`_PeerProtocol`
    connection when connected, a fast-failing stub plus a backoff
    reconnector task when not. All state is loop-confined except the
    ``threading.Event`` connection mirror the sync facade waits on.

    Outbound frames queue on a per-peer list; the first one queued in a
    loop turn schedules :meth:`_flush`, which hands the whole list to the
    transport in one write, so every batch that a turn's coroutines
    submit to this peer shares one ``send``.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        address: Address,
        endpoint: Endpoint,
        *,
        connect_timeout: float = 5.0,
        backoff_initial: float = BACKOFF_INITIAL,
        backoff_max: float = BACKOFF_MAX,
    ) -> None:
        self.address = address
        self.actor_name = format_actor(address)
        self.endpoint = parse_endpoint(endpoint)
        self._loop = loop
        self._connect_timeout = connect_timeout
        self._backoff_initial = backoff_initial
        self._backoff_max = backoff_max
        self._proto: _PeerProtocol | None = None  # the live connection
        self._outbox: list[bytes] = []  # frames awaiting this turn's flush
        self._down_reason: str | None = (
            f"peer {self.actor_name}@{self.endpoint} never connected"
        )
        self._closed = False
        #: req_id -> ("rpc", slot, latch, gen) | ("ctl", future)
        self._pending: dict[int, tuple] = {}
        self._req_ids = itertools.count(1)
        self._connected_sync = threading.Event()  # cross-thread mirror
        self._connector = loop.create_task(
            self._connect_loop(), name=f"dial-{self.actor_name}"
        )

    # -- health ----------------------------------------------------------

    @property
    def connected(self) -> bool:
        """True while a live connection is installed (any thread)."""
        return self._connected_sync.is_set()

    @property
    def down_reason(self) -> str | None:
        """Why the peer is unreachable right now (None when connected)."""
        if self._connected_sync.is_set():
            return None
        return self._down_reason

    def wait_connected(self, timeout: float | None = None) -> bool:
        """Block the *calling thread* until connected (sync facade)."""
        return self._connected_sync.wait(timeout)

    # -- connector task --------------------------------------------------

    async def _connect_loop(self) -> None:
        """Dial → handshake → install the connection and wait for it to
        end; then drain and redial, backing off while dials fail. The
        connector is the only task that installs connections, and it
        waits for one to close before dialing the next — so at most one
        live connection exists at a time.
        """
        backoff = self._backoff_initial
        while not self._closed:
            try:
                proto = await self._dial()
            except (OSError, ReproError) as exc:
                self._down_reason = (
                    f"peer {self.actor_name}@{self.endpoint} unreachable: {exc}"
                )
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self._backoff_max)
                continue
            if self._closed:
                proto.transport.abort()
                return
            self._proto = proto
            self._down_reason = None
            self._connected_sync.set()
            backoff = self._backoff_initial
            await proto.closed
            # no-op when a drop, corrupt message or close already drained
            self._mark_down(
                f"peer {self.actor_name}@{self.endpoint} connection lost"
            )

    async def _dial(self) -> _PeerProtocol:
        """Async twin of :func:`repro.net.node.connect_and_handshake`.

        Dials with the connection's own :class:`_PeerProtocol`, which
        sends the hello on connect and resolves its ``welcome`` with the
        reply; once installed, the same protocol (and decoder) carries
        the RPC stream.
        """
        _, proto = await asyncio.wait_for(
            self._loop.create_connection(
                lambda: _PeerProtocol(self), self.endpoint.host, self.endpoint.port
            ),
            self._connect_timeout,
        )
        try:
            body = await asyncio.wait_for(proto.welcome, self._connect_timeout)
            if body is None:
                raise HandshakeError(
                    f"agent at {self.endpoint} closed the connection "
                    "mid-handshake"
                )
            reply = decode_body(body)
            if (
                not isinstance(reply, tuple)
                or len(reply) != 2
                or reply[0] not in ("welcome", "reject")
            ):
                raise HandshakeError(
                    f"bad handshake reply from {self.endpoint}: {reply!r}"
                )
            if reply[0] == "reject":
                raise HandshakeError(
                    f"agent at {self.endpoint} rejected "
                    f"{self.actor_name!r}: {reply[1]}"
                )
            return proto
        except BaseException:
            proto.transport.abort()
            raise

    @staticmethod
    def _complete(entry: tuple, body: Any) -> None:
        if entry[0] == "rpc":
            _, slot, latch, gen = entry
            slot[0] = body
            latch.group_done(gen)
        else:
            _, fut = entry
            if not fut.done():
                fut.set_result(body)

    def _mark_down(self, reason: str) -> None:
        """Drain-as-RemoteError, exactly once per connection (loop thread).

        The guard mirrors :meth:`repro.net.wire.RpcChannel.mark_down`:
        ``_down_reason`` is None exactly while a connection is installed,
        so of the racing death signals (EOF, send failure, drop, close)
        only the first drains — no batch latch is ever released twice.
        Unflushed frames are discarded with the connection: their calls
        are among those drained here, so they must never reach the wire
        (least of all a reconnected socket).
        """
        if self._down_reason is not None:
            return
        self._down_reason = reason
        self._connected_sync.clear()
        proto, self._proto = self._proto, None
        self._outbox = []
        drained = list(self._pending.values())
        self._pending.clear()
        error = RemoteError("PeerUnavailable", reason)
        for entry in drained:
            self._complete(entry, error)
        if proto is not None:
            proto.transport.abort()

    # -- RPC surface (the remote-handle contract, loop thread only) ------

    def _send(self, frame: bytes) -> None:
        if not self._outbox:
            self._loop.call_soon(self._flush)
        self._outbox.append(frame)

    def _flush(self) -> None:
        """Write every frame queued this turn, in submit order, in one
        transport write (nothing when ``_mark_down`` discarded them)."""
        out = self._outbox
        if not out:
            return
        self._outbox = []
        try:
            self._proto.transport.write(out[0] if len(out) == 1 else b"".join(out))
        except Exception as exc:  # transport already torn down under us
            self._mark_down(
                f"send to peer {self.actor_name}@{self.endpoint} failed: {exc!r}"
            )

    def submit(
        self,
        group: WireGroup,
        slot: list,
        latch: _AioLatch,
        gen: int,
        trace: Any = None,
    ) -> None:
        """Queue one wire group; the receive callback completes the latch.

        Never blocks and never awaits: the frame joins this turn's flush
        (the asyncio analogue of the blocking channels' outbox queue — a
        submit is never stuck on a busy peer's socket backpressure).
        Fails fast with a typed error while the peer is down.
        """
        if self._proto is None:
            slot[0] = RemoteError("PeerUnavailable", self._down_reason)
            latch.group_done(gen)
            return
        payload = [(call.method, call.args) for call in group.calls]
        envelope = ("rpc", payload) if trace is None else ("rpc", payload, trace)
        req_id = next(self._req_ids)
        try:
            frame = encode_message(req_id, envelope)
        except WireCodecError as exc:
            # the *request* is unpicklable: that call is broken, not the peer
            slot[0] = RemoteError.wrap(exc)
            latch.group_done(gen)
            return
        self._pending[req_id] = ("rpc", slot, latch, gen)
        self._send(frame)

    async def control(self, kind: str, timeout: float = 10.0) -> Any:
        """Round-trip one control message; raises on a down connection."""
        if self._proto is None:
            raise RemoteError("PeerUnavailable", self._down_reason)
        req_id = next(self._req_ids)
        fut: asyncio.Future = self._loop.create_future()
        self._pending[req_id] = ("ctl", fut)
        self._send(encode_message(req_id, (kind, ())))
        try:
            body = await asyncio.wait_for(fut, timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self._pending.pop(req_id, None)
            raise TimeoutError(
                f"peer {self.actor_name} did not answer {kind!r} in {timeout}s"
            ) from None
        if isinstance(body, RemoteError):
            raise body
        value = decode_body(body)
        if isinstance(value, RemoteError):
            raise value
        return value

    # -- lifecycle (loop thread) -----------------------------------------

    def stop(self, send_shutdown: bool = True, timeout: float = 10.0) -> None:
        """Stop the peer from any thread *except* the loop thread — the
        blocking facade over :meth:`stop_async` (drain code calls
        ``peer.stop()`` on whichever driver it was handed)."""
        asyncio.run_coroutine_threadsafe(
            self.stop_async(send_shutdown=send_shutdown, timeout=timeout),
            self._loop,
        ).result(timeout + 5.0)

    async def stop_async(
        self, send_shutdown: bool = True, timeout: float = 10.0
    ) -> None:
        """Orderly shutdown: tell the remote actor to stop, then hang up
        (``send_shutdown=False`` only hangs up — the teardown against
        operator-run agents that must keep serving)."""
        if self._closed:
            return
        self._closed = True
        if send_shutdown and self._proto is not None:
            try:
                await self.control(CTL_SHUTDOWN, timeout=timeout)
            except (RemoteError, TimeoutError):
                pass  # peer already dead or wedged; just hang up
        self._mark_down(
            "peer stopped by driver close"
            if send_shutdown
            else "peer aborted (driver hang-up)"
        )
        self._connector.cancel()
        try:
            await self._connector
        except asyncio.CancelledError:
            pass

    def drop(self) -> None:
        """Sever the current connection without closing the peer (failure
        injection: the connector redials with backoff). Any thread."""
        self._loop.call_soon_threadsafe(
            self._mark_down, "connection dropped (failure injection)"
        )


class AioProtocolFuture:
    """Result handle of :meth:`AioDriver.spawn` — the event-loop twin of
    :class:`~repro.net.threaded.ProtocolFuture` (``done()`` /
    ``result(timeout)``), wrapping the coroutine's cross-thread future."""

    def __init__(self, driver: "AioDriver", proto: Protocol[Any]) -> None:
        self._fut = asyncio.run_coroutine_threadsafe(
            driver.drive(proto), driver.loop
        )

    def done(self) -> bool:
        """True once the protocol coroutine finished (or failed)."""
        return self._fut.done()

    def result(self, timeout: float | None = 60.0) -> Any:
        """The protocol's return value; re-raises its error."""
        try:
            return self._fut.result(timeout)
        except TimeoutError:
            if not self._fut.done():
                raise TimeoutError("protocol did not complete in time") from None
            raise


class AioDriver:
    """Drives protocols against TCP-remote and in-parent actors from one
    event loop.

    ``register`` places an actor on an in-parent service thread (the
    threaded driver's semantics — deployments keep the vm and pm there
    under ``control_plane="parent"``); ``register_remote`` binds an
    address to a node-agent endpoint served by an :class:`AioPeer`. The
    loop lives on a dedicated daemon thread the driver owns, so the sync
    facade (``run``/``spawn``/``call``/stats) works from any thread while
    async-native clients run coroutines on the loop via ``run_async``.
    """

    def __init__(
        self,
        registry: Mapping[Address, Actor] | None = None,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        self._connect_timeout = connect_timeout
        self._servers: dict[Address, _ServerThread] = {}
        self._remotes: dict[Address, AioPeer] = {}
        self._closed = False
        self._lock = threading.Lock()
        # transport counters + RTT histograms: loop-thread writers only
        self._batches = 0
        self._submissions = 0
        self._wakeups = 0
        self._rtt: dict[str, LatencyHistogram] = {}
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop_main, name="aio-driver", daemon=True
        )
        self._thread.start()
        for address, actor in (registry or {}).items():
            self.register(address, actor)

    def _loop_main(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            # Backstop against orphans: close() already stopped every
            # peer, so anything still pending here is cancelled, awaited
            # and only then is the loop closed — no "Task was destroyed
            # but it is pending!" at interpreter exit.
            tasks = asyncio.all_tasks(self.loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self.loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            self.loop.run_until_complete(self.loop.shutdown_asyncgens())
            self.loop.close()

    def set_debug(self, flag: bool = True) -> None:
        """Toggle asyncio debug mode on the driver's loop (slow-callback
        and never-awaited diagnostics; the stress suite turns it on)."""
        self.loop.call_soon_threadsafe(self.loop.set_debug, flag)

    def run_async(self, coro: Any, timeout: float | None = None) -> Any:
        """Run a coroutine on the driver's loop; block the calling thread
        for its result. The bridge async-native clients use to enter the
        loop (e.g. ``driver.run_async(main())`` gathering 10k client
        coroutines)."""
        if threading.current_thread() is self._thread:
            raise RuntimeError(
                "run_async called from the event-loop thread (await instead)"
            )
        try:
            fut = asyncio.run_coroutine_threadsafe(coro, self.loop)
        except RuntimeError:  # loop already closed: don't leak the coroutine
            coro.close()
            raise
        return fut.result(timeout)

    # -- registration ----------------------------------------------------

    def register(self, address: Address, actor: Actor) -> None:
        """Place an actor on an in-parent service thread."""
        with self._lock:
            if self._closed:
                raise RuntimeError("driver is closed")
            if address in self._servers or address in self._remotes:
                raise ValueError(f"address {address!r} already registered")
            self._servers[address] = _ServerThread(address, actor)

    def register_remote(
        self, address: Address, endpoint: Endpoint | str
    ) -> AioPeer:
        """Bind ``address`` to a node-agent endpoint; dialing starts
        immediately on the event loop (use :meth:`wait_connected` to
        block until the cluster is reachable)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("driver is closed")
        endpoint = parse_endpoint(endpoint)

        async def _make() -> AioPeer:
            return AioPeer(
                self.loop, address, endpoint,
                connect_timeout=self._connect_timeout,
            )

        peer = self.run_async(_make())
        with self._lock:
            duplicate = (
                self._closed
                or address in self._servers
                or address in self._remotes
            )
            if not duplicate:
                self._remotes[address] = peer
        if duplicate:
            self.run_async(peer.stop_async(send_shutdown=False))
            if self._closed:
                raise RuntimeError("driver is closed")
            raise ValueError(f"address {address!r} already registered")
        return peer

    def register_map(self, cluster_map) -> None:
        """Register every actor of a cluster map."""
        for address, endpoint in cluster_map.items():
            self.register_remote(address, endpoint)

    def peer(self, address: Address) -> AioPeer:
        """The :class:`AioPeer` registered at ``address``."""
        with self._lock:
            return self._remotes[address]

    def addresses(self) -> list[Address]:
        """Every registered address (in-parent first, then remote)."""
        with self._lock:
            return list(self._servers) + list(self._remotes)

    def remote_addresses(self) -> list[Address]:
        """The addresses served over the wire."""
        with self._lock:
            return list(self._remotes)

    # -- health ----------------------------------------------------------

    def wait_connected(self, timeout: float = 10.0) -> None:
        """Block until every registered peer holds a live connection;
        raises ``TimeoutError`` naming the unreachable peers."""
        deadline = time.monotonic() + timeout
        with self._lock:
            peers = list(self._remotes.values())
        laggards = []
        for peer in peers:
            remaining = deadline - time.monotonic()
            if not peer.wait_connected(max(0.0, remaining)):
                laggards.append(
                    f"{peer.actor_name}@{peer.endpoint} ({peer.down_reason})"
                )
        if laggards:
            raise TimeoutError(
                f"peers not connected within {timeout}s: " + "; ".join(laggards)
            )

    def peer_status(self) -> dict[Address, str]:
        """``address -> "connected" | down reason`` for every peer."""
        with self._lock:
            peers = dict(self._remotes)
        return {
            a: ("connected" if p.connected else str(p.down_reason))
            for a, p in peers.items()
        }

    # -- introspection ---------------------------------------------------

    def server_stats(self) -> dict[Address, tuple[int, int]]:
        """Per-actor ``(wire_rpcs, sub_calls)``, queried over the wire for
        remote actors (raises ``RemoteError`` for a dead peer)."""
        with self._lock:
            servers = dict(self._servers)
            remotes = dict(self._remotes)
        stats = {a: (s.served_rpcs, s.served_calls) for a, s in servers.items()}
        for address, peer in remotes.items():
            reply = self.run_async(peer.control(CTL_STATS))
            stats[address] = (reply["wire_rpcs"], reply["sub_calls"])
        return stats

    def transport_stats(self) -> dict[str, int]:
        """Aggregate transport counters (same shape and bounds as
        :meth:`repro.net.threaded.ThreadedDriver.transport_stats` — one
        queue submission per destination per batch, at most one
        completion wakeup per batch)."""
        return {
            "batches": self._batches,
            "queue_submissions": self._submissions,
            "completion_wakeups": self._wakeups,
        }

    def caller_rtt(self) -> dict[str, LatencyHistogram]:
        """Per-destination-kind wire-RPC round-trip histograms across
        every protocol this driver executed. Fresh merges — safe to
        mutate; read when callers are quiescent (single-writer loop)."""
        return {kind: merge_all([hist]) for kind, hist in self._rtt.items()}

    def telemetry(self, address: Address) -> dict[str, Any]:
        """One actor's telemetry report, queried as a *control* for
        remote actors (controls are not counted as wire RPCs, so scraping
        is invisible to workload counters)."""
        with self._lock:
            server = self._servers.get(address)
            remote = self._remotes.get(address)
        if server is not None:
            return {
                "wire_rpcs": server.served_rpcs,
                "sub_calls": server.served_calls,
                "telemetry": telemetry_of(server.actor).snapshot(),
            }
        if remote is None:
            raise KeyError(f"no actor registered at address {address!r}")
        return self.run_async(remote.control(CTL_TELEMETRY))

    def call(self, address: Address, method: str, args: tuple = ()) -> Any:
        """One-off RPC outside any protocol (inspection surfaces)."""

        def proto():
            (result,) = yield Batch([Call(address, method, args)])
            return result

        return self.run(proto())

    # -- execution -------------------------------------------------------

    def run(self, proto: Protocol[Any]) -> Any:
        """Execute a protocol from any thread (the sync facade).

        The calling thread's open trace (if any) rides along explicitly —
        the loop thread cannot read the caller's thread-locals — and the
        caller's span-coverage watermark is advanced over the whole
        driver-run window afterwards, so a thread-side
        ``trace_operation`` block around this exports cleanly.
        """
        trace = current_trace()
        parent = current_op_span()
        t0 = time.perf_counter_ns()
        value = self.run_async(self.drive(proto, trace=trace, parent=parent))
        if trace is not None:
            advance_op_mark(trace, parent, t0, time.perf_counter_ns())
        return value

    def spawn(self, proto: Protocol[Any]) -> AioProtocolFuture:
        """Run a protocol concurrently on the loop; returns a waitable
        future (thread-parity with ``ThreadedDriver.spawn``: the spawned
        protocol does not inherit the spawning thread's trace)."""
        return AioProtocolFuture(self, proto)

    async def drive(
        self,
        proto: Protocol[Any],
        *,
        trace: Any = None,
        parent: int | None = None,
    ) -> Any:
        """Execute a protocol as a coroutine on the driver's loop.

        The awaitable core every surface funnels into: ``run``/``spawn``
        pass the sync caller's trace context explicitly; async-native
        callers leave it None and the task-context trace installed by
        :func:`trace_async_operation` applies.
        """
        if trace is None:
            ctx = _task_trace.get()
            if ctx is not None:
                trace, parent = ctx
        try:
            op = next(proto)
            while True:
                if isinstance(op, Compute):
                    op = proto.send(None)
                    continue
                if isinstance(op, Mark):
                    op = proto.send(time.monotonic())
                    continue
                if not isinstance(op, Batch):
                    raise TypeError(
                        f"protocol yielded {op!r}, expected Batch or Compute"
                    )
                try:
                    results = await self._execute_batch(op, trace, parent)
                except ReproError as exc:
                    op = proto.throw(exc)
                    continue
                op = proto.send(results)
        except StopIteration as stop:
            return stop.value

    async def _execute_batch(
        self, batch: Batch, trace: Any, parent: int | None
    ) -> list[Any]:
        # Same framing as every other real driver: one wire RPC (= one
        # frame / queue submission) per destination, destinations resolved
        # before anything is submitted.
        calls = batch.calls
        if not calls:
            return []
        if asyncio.get_running_loop() is not self.loop:
            raise RuntimeError(
                "protocol coroutines must run on the driver's event loop "
                "(enter it via AioDriver.run_async or AioDriver.spawn)"
            )
        groups = plan_wire_groups(calls)
        servers = self._servers
        remotes = self._remotes
        resolved: list[tuple[AioPeer | None, _ServerThread | None]] = []
        for group in groups:
            server = servers.get(group.dest)
            if server is not None:
                resolved.append((None, server))
                continue
            remote = remotes.get(group.dest)
            if remote is None:
                raise KeyError(f"no actor registered at address {group.dest!r}")
            resolved.append((remote, None))
        results: list[Any] = [None] * len(calls)
        latch = _AioLatch(self.loop, len(groups))
        self._batches += 1
        self._submissions += len(groups)
        span_ids = None
        if trace is not None:
            span_ids = [new_span_id() for _ in groups]
        t_enq = time.perf_counter_ns()
        slots: list[list | None] = [None] * len(groups)
        for k, ((remote, server), group) in enumerate(zip(resolved, groups)):
            wire_trace = trace if span_ids is None else (trace, span_ids[k])
            if remote is not None:
                slot: list = [None]
                slots[k] = slot
                remote.submit(group, slot, latch, 0, wire_trace)
            else:
                server.inbox.put(
                    (group.calls, group.indices, results, latch, 0,
                     wire_trace, t_enq)
                )
        await latch.future
        self._wakeups += 1
        t_done = time.perf_counter_ns()
        rtt_ns = t_done - t_enq
        for group in groups:
            hist = self._rtt.get(dest_kind(group.dest))
            if hist is None:
                hist = self._rtt[dest_kind(group.dest)] = LatencyHistogram()
            hist.record(rtt_ns)
        if span_ids is not None:
            # rpc spans with explicit parenting: the loop thread serves
            # many interleaved operations, so the thread-local watermark
            # dance of record_group_spans cannot apply here (the sync
            # facade closes its caller's watermark instead).
            start, end = to_span_ns(t_enq), to_span_ns(t_done)
            for sid, group in zip(span_ids, groups):
                nbytes = sum(call.payload_bytes() for call in group.calls)
                record_rpc_span(
                    trace, sid, parent, format_actor(group.dest),
                    start, end, nbytes,
                )
        for k, slot in enumerate(slots):
            if slot is None:
                continue
            group = groups[k]
            values = RemoteActorDriver._decode_group(group, slot[0])
            for index, value in zip(group.indices, values):
                results[index] = value
        return [deliver(c, r) for c, r in zip(calls, results)]

    # -- lifecycle -------------------------------------------------------

    def _shutdown(self, send_shutdown: bool) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            servers = list(self._servers.values())
            remotes = list(self._remotes.values())

        async def _stop_peers() -> None:
            await asyncio.gather(
                *(p.stop_async(send_shutdown=send_shutdown) for p in remotes),
                return_exceptions=True,
            )

        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(_stop_peers(), self.loop).result(60)
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=10)
        for server in servers:
            server.stop()

    def close(self) -> None:
        """Orderly teardown: every remote actor gets the shutdown control,
        the loop drains and stops, in-parent service threads join."""
        self._shutdown(send_shutdown=True)

    def abort(self) -> None:
        """Hang up without stopping the remote actors (the teardown for a
        failed build against operator-run agents)."""
        self._shutdown(send_shutdown=False)

    def __enter__(self) -> "AioDriver":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
