"""Shared wire machinery for the socket-backed drivers.

The process driver (:mod:`repro.net.process`) and the TCP driver
(:mod:`repro.net.tcp`) speak the same protocol — :mod:`repro.net.codec`
messages carrying ``("rpc", sub_calls)`` requests and control messages —
over different connection kinds (an inherited ``socketpair`` to a child
process vs. a real TCP connection to a node agent). Everything that is
*about the protocol* rather than the connection lives here:

- :class:`RpcChannel` — the caller side of one live connection: pending
  request registry, a dedicated sender thread (submits never block on a
  busy peer's socket), a receiver thread that routes replies by the
  12-byte message header alone (bodies are decoded later, on the caller
  thread that wants the data), and drain-on-death: when the connection
  dies, every in-flight request completes with a
  :class:`~repro.errors.RemoteError` and future submissions fail fast.
- :class:`RemoteActorDriver` — a :class:`~repro.net.threaded.ThreadedDriver`
  whose registry is split between in-parent service threads and remote
  handles; batches execute the exact wire groups planned by
  :func:`~repro.net.sansio.plan_wire_groups`, one message per destination.
- the control vocabulary (``stats``, ``shutdown``) and the reply encoder
  shared by worker processes and node agents.

Invariants this module guarantees (pinned by the process- and
tcp-transport suites):

- **submits never block**: frames leave through an outbound queue drained
  by a dedicated sender thread per channel, so a caller is never stuck on
  a busy peer's socket backpressure;
- **replies route by header, decode on the caller**: the receiver thread
  touches only the 12-byte message header — payload unpickling happens on
  the caller thread that asked for the data, concurrently across callers;
- **drain-as-RemoteError, exactly once**: channel death (EOF, kill, send
  failure, codec corruption) completes every pending request with a
  :class:`~repro.errors.RemoteError`, fails all future submissions fast,
  and fires ``on_down`` exactly once, after the drain — no caller ever
  blocks on a corpse, and no batch latch is ever released twice;
- **a socket another thread may be blocked in ``recv`` on is severed with
  ``shutdown(SHUT_RDWR)`` before ``close()``** (:func:`force_close`) — a
  bare close neither wakes the reader nor sends FIN on Linux.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from typing import Any, Callable, Mapping

from repro.errors import RemoteError
from repro.net.codec import (
    RECV_CHUNK,
    MessageDecoder,
    WireCodecError,
    decode_body,
    encode_message,
)
from repro.net.sansio import (
    Actor,
    Address,
    Batch,
    Call,
    WireGroup,
    deliver,
    dispatch_call,
    plan_wire_groups,
)
from repro.net.threaded import ThreadedDriver, _BatchLatch, dest_kind
from repro.obs.spans import new_span_id, record_group_spans
from repro.obs.trace import current_op_span, current_trace

#: requested SO_SNDBUF/SO_RCVBUF: lets a full page batch leave the caller
#: in one non-blocking sendall even while the peer is mid-computation
SOCK_BUF = 1 << 20

#: control message kinds understood by worker/agent service loops.
#: Controls are *not* counted as wire RPCs by either side, so a stats or
#: telemetry scrape never perturbs workload counter assertions.
CTL_STATS = "stats"
CTL_SHUTDOWN = "shutdown"
CTL_TELEMETRY = "telemetry"


def force_close(sock: socket.socket) -> None:
    """Sever a socket that another thread may be blocked in ``recv`` on.

    A bare ``close()`` neither wakes a concurrently blocked ``recv()``
    nor sends FIN while that syscall still references the file — the
    reader (ours *and* the peer's) would sit in recv until kingdom come.
    ``shutdown(SHUT_RDWR)`` does both, immediately.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already shut down
    try:
        sock.close()
    except OSError:
        pass


def tune_socket(sock: socket.socket) -> None:
    """Enlarge kernel buffers; disable Nagle on TCP sockets (RPC replies
    are latency-bound and the codec already writes whole frames)."""
    for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, opt, SOCK_BUF)
        except OSError:  # pragma: no cover - platform-capped buffers are fine
            pass
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # not a TCP socket (e.g. an AF_UNIX socketpair)
        pass


def run_calls(actor: Actor, address: Address, payload: list) -> list:
    """Serve one ``("rpc", payload)`` message body against an actor."""
    return [
        dispatch_call(actor, Call(address, method, call_args))
        for method, call_args in payload
    ]


def encode_reply(req_id: int, results: list) -> bytes:
    """Encode a result list, downgrading unpicklable values to errors.

    ``dispatch_call`` already wraps handler exceptions in
    :class:`RemoteError` (whose ``__reduce__`` drops unpicklable
    originals), so this fallback only fires when a *successful* handler
    returns something that cannot cross the wire — a bug worth naming
    precisely instead of killing the connection.
    """
    try:
        return encode_message(req_id, results)
    except WireCodecError:
        safe: list[Any] = []
        for value in results:
            try:
                encode_message(0, value)
                safe.append(value)
            except WireCodecError as exc:
                safe.append(
                    RemoteError(
                        "UnpicklableResult", f"{type(value).__name__}: {exc}"
                    )
                )
        return encode_message(req_id, safe)


class RpcChannel:
    """Caller-side endpoint of one live RPC connection.

    Many caller threads submit concurrently: frames go out through an
    outbound queue drained by a dedicated sender thread (a submit never
    blocks on socket backpressure from a busy peer), and a receiver
    thread routes raw reply bodies (by message header alone — no
    unpickling) to whichever batch latch is waiting. Death (EOF, kill,
    send failure, codec corruption) drains every pending request with a
    ``RemoteError`` and fails all future submissions fast — no caller
    ever blocks on a corpse. ``on_down`` fires exactly once, after the
    drain; it must not block (the TCP peer uses it to kick its
    reconnector, the process driver records a terminal reason).
    """

    def __init__(
        self,
        sock: socket.socket,
        peer: str,
        *,
        error_label: str = "PeerUnavailable",
        on_down: Callable[[str], None] | None = None,
    ) -> None:
        self.peer = peer
        self.sock = sock
        self._error_label = error_label
        self._on_down = on_down
        self._pending_lock = threading.Lock()
        #: req_id -> ("rpc", slot, latch, gen) | ("ctl", box, event);
        #: slot/box receive the *encoded* reply body (or a RemoteError)
        self._pending: dict[int, tuple] = {}
        self._req_ids = itertools.count(1)
        self._down_reason: str | None = None
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._recv_thread = threading.Thread(
            target=self._recv_loop, name=f"recv-{peer}", daemon=True
        )
        self._recv_thread.start()
        self._send_thread = threading.Thread(
            target=self._send_loop, name=f"send-{peer}", daemon=True
        )
        self._send_thread.start()

    # -- health ----------------------------------------------------------

    @property
    def down_reason(self) -> str | None:
        return self._down_reason

    def mark_down(self, reason: str) -> None:
        with self._pending_lock:
            if self._down_reason is not None:
                return
            self._down_reason = reason
            drained = list(self._pending.values())
            self._pending.clear()
        error = RemoteError(self._error_label, reason)
        for entry in drained:
            self._complete(entry, error)
        if self._on_down is not None:
            self._on_down(reason)

    @staticmethod
    def _complete(entry: tuple, body: Any) -> None:
        """Hand a raw reply body (or a RemoteError) to its waiter."""
        if entry[0] == "rpc":
            _, slot, latch, gen = entry
            slot[0] = body
            latch.group_done(gen)
        else:
            _, box, event = entry
            box[0] = body
            event.set()

    # -- receive ---------------------------------------------------------

    def _recv_loop(self) -> None:
        decoder = MessageDecoder()
        while True:
            try:
                chunk = self.sock.recv(RECV_CHUNK)
            except OSError:
                chunk = b""
            if not chunk:
                # No peer-process poll here: the owner's on_down callback
                # runs on this thread and must stay non-blocking (see the
                # process driver for why polling from here corrupts
                # multiprocessing exit codes).
                self.mark_down(f"peer {self.peer} connection lost")
                return
            try:
                for req_id, body in decoder.feed(chunk):
                    with self._pending_lock:
                        entry = self._pending.pop(req_id, None)
                    if entry is not None:
                        self._complete(entry, body)
            except WireCodecError as exc:
                self.mark_down(f"peer {self.peer} sent a corrupt message: {exc}")
                return

    # -- submit ----------------------------------------------------------

    def submit(
        self,
        group: WireGroup,
        slot: list,
        latch: _BatchLatch,
        gen: int,
        trace: Any = None,
    ) -> None:
        """Send one wire group; the receiver thread completes the latch.

        ``slot`` is the batch's one-element mailbox for this group: it
        receives the raw reply body, which the *caller* decodes after the
        latch releases (see ``RemoteActorDriver._execute_batch``).

        ``trace`` is the driver-minted trace context for this group — a
        ``(trace_id, span_id)`` pair while the caller has a trace open,
        else ``None``.
        """
        payload = [(call.method, call.args) for call in group.calls]
        with self._pending_lock:
            reason = self._down_reason
            if reason is None:
                req_id = next(self._req_ids)
                self._pending[req_id] = ("rpc", slot, latch, gen)
        if reason is not None:
            slot[0] = RemoteError(self._error_label, reason)
            latch.group_done(gen)
            return
        # Trace propagation: the envelope grows an optional third field
        # only while the calling thread has a trace open — with none, the
        # frame is bit-identical to the historical 2-tuple form.
        envelope = ("rpc", payload) if trace is None else ("rpc", payload, trace)
        try:
            frame = encode_message(req_id, envelope)
        except WireCodecError as exc:
            # the *request* is unpicklable: that call is broken, not the
            # peer. Complete the group only if the entry is still ours —
            # a concurrent mark_down may have drained (and completed) it,
            # and a second group_done would release the batch latch early.
            with self._pending_lock:
                entry = self._pending.pop(req_id, None)
            if entry is not None:
                slot[0] = RemoteError.wrap(exc)
                latch.group_done(gen)
            return
        self._outbox.put(frame)

    def control(self, kind: str, timeout: float = 10.0) -> Any:
        """Round-trip one control message; raises on a down connection."""
        box: list[Any] = [None]
        event = threading.Event()
        with self._pending_lock:
            reason = self._down_reason
            if reason is None:
                req_id = next(self._req_ids)
                self._pending[req_id] = ("ctl", box, event)
        if reason is not None:
            raise RemoteError(self._error_label, reason)
        self._outbox.put(encode_message(req_id, (kind, ())))
        if not event.wait(timeout):
            with self._pending_lock:
                self._pending.pop(req_id, None)
            raise TimeoutError(
                f"peer {self.peer} did not answer {kind!r} in {timeout}s"
            )
        if isinstance(box[0], RemoteError):
            raise box[0]
        value = decode_body(box[0])
        if isinstance(value, RemoteError):
            raise value
        return value

    def _send_loop(self) -> None:
        while True:
            frame = self._outbox.get()
            if frame is None:
                return
            try:
                self.sock.sendall(frame)
            except (OSError, ValueError) as exc:
                self.mark_down(f"send to peer {self.peer} failed: {exc!r}")
                return

    # -- lifecycle -------------------------------------------------------

    def close(self, reason: str = "channel closed") -> None:
        """Drain, stop both service threads, and close the socket."""
        self.mark_down(reason)
        self._outbox.put(None)
        force_close(self.sock)
        self._recv_thread.join(timeout=5)
        self._send_thread.join(timeout=5)


class RemoteActorDriver(ThreadedDriver):
    """Drives protocols against a mix of remote and in-parent actors.

    Extends :class:`ThreadedDriver`: ``register`` places an actor on an
    in-parent service thread (exactly the threaded driver's semantics),
    while subclasses register *remote handles* — objects exposing
    ``submit(group, slot, latch, gen, trace)``, ``control(kind)`` and
    ``stop()``
    — for actors living in worker processes or on other hosts. The
    protocol loop, batch latch, ``spawn``/futures and transport counters
    are shared, so ``transport_stats`` reads identically across every
    real driver.
    """

    def __init__(self, registry: Mapping[Address, Actor] | None = None) -> None:
        super().__init__(registry)
        self._remotes: dict[Address, Any] = {}

    # -- registration ----------------------------------------------------

    def register(self, address: Address, actor: Actor) -> None:
        if address in self._remotes:
            raise ValueError(f"address {address!r} already registered (remote)")
        super().register(address, actor)

    def _register_remote(self, address: Address, handle: Any) -> None:
        """Install a connected remote handle (caller holds no lock)."""
        with self._lock:
            if self._closed:
                handle.stop()
                raise RuntimeError("driver is closed")
            if address in self._servers or address in self._remotes:
                handle.stop()
                raise ValueError(f"address {address!r} already registered")
            self._remotes[address] = handle

    def addresses(self) -> list[Address]:
        with self._lock:
            return list(self._servers) + list(self._remotes)

    def remote_addresses(self) -> list[Address]:
        with self._lock:
            return list(self._remotes)

    # -- introspection ---------------------------------------------------

    def server_stats(self) -> dict[Address, tuple[int, int]]:
        """Per-actor ``(wire_rpcs, sub_calls)``, queried over the wire for
        remote actors (raises ``RemoteError`` for a dead peer)."""
        with self._lock:
            servers = dict(self._servers)
            remotes = dict(self._remotes)
        stats = {a: (s.served_rpcs, s.served_calls) for a, s in servers.items()}
        for address, handle in remotes.items():
            reply = handle.control(CTL_STATS)
            stats[address] = (reply["wire_rpcs"], reply["sub_calls"])
        return stats

    def telemetry(self, address: Address) -> dict[str, Any]:
        """One actor's telemetry report (wire counters + service-time
        snapshot), queried over the wire as a *control* for remote actors
        — controls are not counted as wire RPCs, so scraping is invisible
        to the workload counters."""
        with self._lock:
            remote = self._remotes.get(address)
        if remote is None:
            return super().telemetry(address)
        return remote.control(CTL_TELEMETRY)

    def call(self, address: Address, method: str, args: tuple = ()) -> Any:
        """One-off RPC outside any protocol (inspection surfaces)."""

        def proto():
            (result,) = yield Batch([Call(address, method, args)])
            return result

        return self.run(proto())

    # -- execution -------------------------------------------------------

    def _execute_batch(self, batch: Batch) -> list[Any]:
        calls = batch.calls
        if not calls:
            return []
        groups = plan_wire_groups(calls)
        servers = self._servers
        remotes = self._remotes
        resolved: list[tuple[Any, Any]] = []
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
        latch = self._latch()
        gen = latch.begin(len(groups))
        trace = current_trace()
        # With a trace open each wire group gets a span id that rides the
        # envelope (serving-side spans parent to it); untraced batches
        # stay bit-identical on the wire.
        span_ids = None
        parent = None
        if trace is not None:
            parent = current_op_span()
            span_ids = [new_span_id() for _ in groups]
        t_enq = time.perf_counter_ns()
        slots: list[list | None] = [None] * len(groups)
        for k, ((remote, server), group) in enumerate(zip(resolved, groups)):
            wire_trace = trace if span_ids is None else (trace, span_ids[k])
            if remote is not None:
                slot: list = [None]
                slots[k] = slot
                remote.submit(group, slot, latch, gen, wire_trace)
            else:
                server.inbox.put(
                    (group.calls, group.indices, results, latch, gen,
                     wire_trace, t_enq)
                )
        latch.wait()
        t_done = time.perf_counter_ns()
        rtt_ns = t_done - t_enq
        for group in groups:
            latch.record_rtt(dest_kind(group.dest), rtt_ns)
        if span_ids is not None:
            record_group_spans(trace, parent, span_ids, groups, t_enq, t_done)
        # Decode remote replies on *this* thread: the receiver threads only
        # routed raw bodies, so payload unpickling happens in the caller
        # that asked for the data, concurrent across caller threads.
        for k, slot in enumerate(slots):
            if slot is None:
                continue
            group = groups[k]
            body = slot[0]
            values = self._decode_group(group, body)
            for index, value in zip(group.indices, values):
                results[index] = value
        return [deliver(c, r) for c, r in zip(calls, results)]

    @staticmethod
    def _decode_group(group: WireGroup, body: Any) -> list:
        n = len(group.calls)
        if isinstance(body, RemoteError):
            return [body] * n
        try:
            values = decode_body(body)
        except WireCodecError as exc:
            return [RemoteError.wrap(exc)] * n
        if not isinstance(values, list) or len(values) != n:
            return [
                RemoteError(
                    "WireProtocolError",
                    f"peer {group.dest!r} answered {n} calls with "
                    f"{type(values).__name__}",
                )
            ] * n
        return values

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            remotes = list(self._remotes.values())
        for handle in remotes:
            handle.stop()
        super().close()
