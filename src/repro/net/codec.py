"""Wire codec: length-prefixed pickle frames for the process transport.

Until the process driver existed, the "wire" was purely a cost model —
:mod:`repro.net.message` estimates byte counts and nothing is ever
serialized. This module is the real encode/decode path: every RPC batch,
result list and control message crossing a process boundary travels as one
**frame**::

    +----------------+---------------------------+
    | length: u32 BE | body: pickle (protocol 5) |
    +----------------+---------------------------+

The length prefix covers the body only, so frames are self-delimiting on
any byte stream (pipes, sockets); :class:`FrameDecoder` reassembles them
from arbitrary chunk boundaries. ``multiprocessing`` pipes already carry
message boundaries, so over a pipe the prefix is redundant framing — but
it is *verified* on every decode, which keeps the codec honest enough to
drop onto a raw socket unchanged (the conformance tests stream frames
through a socketpair to prove it).

What pickling means for the system's types:

- :class:`~repro.providers.page.PagePayload` defines ``__reduce__``:
  memoryview-backed (zero-copy) payloads materialize to ``bytes`` exactly
  once at the boundary; virtual payloads travel as a byte count.
- :class:`~repro.errors.RemoteError` ships its type name and message
  always, and the wrapped original exception only when it is itself
  picklable (semantic errors like ``VersionNotPublished`` define
  ``__reduce__`` so they survive typed).
- :class:`~repro.metadata.node.TreeNode` defines a flat positional
  ``__reduce__`` (the hottest metadata reply type) and is rebuilt through
  its constructor, so a decoded node is validated like a built one.
- Everything else on the RPC surface — ``PageKey``/``NodeKey`` named
  tuples, the frozen ``WriteTicket`` dataclass, ints, strings,
  containers — pickles natively.

``encode_frame`` refuses silently-wrong output: if the object graph cannot
pickle, :class:`WireCodecError` carries the offending object's repr so the
bug points at the handler that returned it, not at a pipe EOF in another
process.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Iterator

from repro.errors import ReproError

#: pickle protocol 5: out-of-band-buffer capable, Python >= 3.8
WIRE_PICKLE_PROTOCOL = min(5, pickle.HIGHEST_PROTOCOL)

_LEN = struct.Struct(">I")
LENGTH_PREFIX_BYTES = _LEN.size

#: hard ceiling on one frame's body (256 MB); a corrupt or misaligned
#: length prefix otherwise reads as a multi-GB allocation request
MAX_FRAME_BYTES = 256 * 1024 * 1024


class WireCodecError(ReproError):
    """A frame could not be encoded or decoded."""


def encode_frame(obj: Any) -> bytes:
    """Serialize ``obj`` into one length-prefixed frame."""
    try:
        body = pickle.dumps(obj, protocol=WIRE_PICKLE_PROTOCOL)
    except Exception as exc:
        raise WireCodecError(
            f"cannot encode {type(obj).__name__} for the wire: {exc!r}"
        ) from exc
    if len(body) > MAX_FRAME_BYTES:
        raise WireCodecError(
            f"frame body of {len(body)} B exceeds MAX_FRAME_BYTES"
        )
    return _LEN.pack(len(body)) + body


def decode_frame(frame: bytes) -> Any:
    """Decode one complete frame (prefix + body), verifying the prefix."""
    if len(frame) < LENGTH_PREFIX_BYTES:
        raise WireCodecError(f"short frame: {len(frame)} B")
    (length,) = _LEN.unpack_from(frame)
    body = memoryview(frame)[LENGTH_PREFIX_BYTES:]
    if body.nbytes != length:
        raise WireCodecError(
            f"length prefix says {length} B but frame carries {body.nbytes} B"
        )
    return _decode_body(body)


def _decode_body(body: Any) -> Any:
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise WireCodecError(f"cannot decode frame body: {exc!r}") from exc


# ---------------------------------------------------------------------------
# message framing: the RPC channel layout
# ---------------------------------------------------------------------------

#: message header: body length (u32, counts the req-id field + body) and
#: the request id (u64). Carrying the id *outside* the pickle body lets a
#: receiver route a reply to its waiting caller without unpickling — the
#: process driver's receiver threads only ever touch the header, and the
#: (possibly megabytes-large) body is decoded by the thread that wants it.
_MSG = struct.Struct(">IQ")
MESSAGE_HEADER_BYTES = _MSG.size
_REQ_ID_BYTES = 8


def encode_message(req_id: int, obj: Any) -> bytes:
    """One RPC message: ``[length][req_id][pickle body]``."""
    try:
        body = pickle.dumps(obj, protocol=WIRE_PICKLE_PROTOCOL)
    except Exception as exc:
        raise WireCodecError(
            f"cannot encode {type(obj).__name__} for the wire: {exc!r}"
        ) from exc
    if len(body) > MAX_FRAME_BYTES:
        raise WireCodecError(
            f"message body of {len(body)} B exceeds MAX_FRAME_BYTES"
        )
    return _MSG.pack(_REQ_ID_BYTES + len(body), req_id) + body


def decode_body(body: bytes | bytearray | memoryview) -> Any:
    """Decode a message body previously yielded by :class:`MessageDecoder`."""
    return _decode_body(body)


#: the receive buffer of a decoder that has received nothing yet
_NO_BUFFER = memoryview(b"")

#: socket receive chunk: large enough to drain several page-sized messages
#: per syscall when replies queue up. It is also the receive buffer a
#: transport reads into (``get_buffer(-1)``); a message larger than this
#: grows the buffer to fit it, and the buffer shrinks back once that
#: message is consumed.
RECV_CHUNK = 1 << 20


class MessageDecoder:
    """Incremental decoder for a stream of RPC messages.

    Yields ``(req_id, body)`` pairs with the body still *encoded* (bytes):
    routing happens on the 12-byte header alone, and the consumer decides
    where (on which thread) to pay the unpickling.

    Two ways in, one parser. Blocking receivers :meth:`feed` the chunks
    they ``recv``; an ``asyncio.BufferedProtocol`` hands the transport
    :meth:`get_buffer` to ``recv_into`` and reports the fill with
    :meth:`buffer_updated`. Either way the bytes land in one receive
    buffer and every body is sliced out of it exactly once, as ``bytes``.
    The buffer is never resized in place (a transport may still hold a
    view of it), only rewound, compacted or swapped for a larger one.
    """

    def __init__(self) -> None:
        self._view = _NO_BUFFER  # the receive buffer (a bytearray's view)
        self._start = 0  # first unparsed byte
        self._end = 0  # one past the last received byte
        #: bytes from ``_start`` the message being assembled needs
        self._want = MESSAGE_HEADER_BYTES

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        """Writable free tail of the receive buffer.

        Holds at least ``sizehint`` bytes when that is positive, and the
        rest of the message being assembled; ``-1`` (a transport asking)
        gets :data:`RECV_CHUNK` of room to read into.
        """
        start, end = self._start, self._end
        pending = end - start
        need = self._want
        if need < pending + sizehint:
            need = pending + sizehint
        elif need <= pending:  # messages left unconsumed: room for one byte
            need = pending + 1
        if sizehint < 0 and need < RECV_CHUNK:
            need = RECV_CHUNK
        cap = len(self._view)
        if need > cap or cap > RECV_CHUNK >= need:
            # grow to fit the message, or shrink back after an oversized one
            view = memoryview(bytearray(need))
            if pending:
                view[:pending] = self._view[start:end]
            self._view = view
            self._start, self._end = 0, pending
        elif start and (not pending or start + need > cap):
            # rewind (nothing pending) or move the partial message to the front
            if pending:  # memoryview assignment copies overlaps safely
                self._view[:pending] = self._view[start:end]
            self._start, self._end = 0, pending
        return self._view[self._end :]

    def buffer_updated(self, nbytes: int) -> Iterator[tuple[int, bytes]]:
        """Account ``nbytes`` written into :meth:`get_buffer`'s view and
        iterate the messages completed so far. Messages are consumed as
        they are yielded: one left unconsumed (the caller broke out of
        the loop) stays buffered, and the next call's iterator — which
        replaces this one — yields it."""
        self._end += nbytes
        return self._messages()

    def feed(self, data: bytes | bytearray | memoryview) -> Iterator[tuple[int, bytes]]:
        """Append one received chunk; iterate the completed messages."""
        n = len(data)
        if n:
            self.get_buffer(n)[:n] = data
        return self.buffer_updated(n)

    def _messages(self) -> Iterator[tuple[int, bytes]]:
        view, start, stop = self._view, self._start, self._end
        while stop - start >= MESSAGE_HEADER_BYTES:
            length, req_id = _MSG.unpack_from(view, start)
            if length < _REQ_ID_BYTES or length - _REQ_ID_BYTES > MAX_FRAME_BYTES:
                raise WireCodecError(
                    f"message of {length} B outside sane bounds "
                    "(corrupt length prefix?)"
                )
            end = start + MESSAGE_HEADER_BYTES - _REQ_ID_BYTES + length
            if end > stop:
                self._want = end - start
                return
            self._start = end
            yield req_id, bytes(view[start + MESSAGE_HEADER_BYTES : end])
            start = end
        self._want = MESSAGE_HEADER_BYTES

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete message."""
        return self._end - self._start


class FrameDecoder:
    """Incremental decoder for a byte *stream* of frames.

    Feed arbitrary chunks (as read from a socket); complete objects come
    out in order. Partial frames are buffered across feeds, so chunk
    boundaries never matter.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes | bytearray | memoryview) -> Iterator[Any]:
        self._buf += data
        while True:
            if len(self._buf) < LENGTH_PREFIX_BYTES:
                return
            (length,) = _LEN.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise WireCodecError(
                    f"frame of {length} B exceeds MAX_FRAME_BYTES "
                    "(corrupt length prefix?)"
                )
            end = LENGTH_PREFIX_BYTES + length
            if len(self._buf) < end:
                return
            body = bytes(memoryview(self._buf)[LENGTH_PREFIX_BYTES:end])
            del self._buf[:end]
            yield _decode_body(body)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)
