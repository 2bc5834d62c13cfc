"""Wire codec: frame round-trips for everything that crosses a process
boundary, streaming reassembly, and corruption handling.

The satellite requirement pinned here: memoryview-backed (zero-copy) and
spilled page payloads must round-trip the codec bit-identically — the
process driver is only correct if the wire preserves exactly the bytes
the in-process drivers carry as views.
"""

from __future__ import annotations

import pickle
import socket

import pytest

from repro.core.persistence import DiskSpill
from repro.errors import (
    PageMissing,
    RemoteError,
    ReproError,
    VersionNotPublished,
)
from repro.metadata.node import NodeKey, TreeNode
from repro.net.codec import (
    LENGTH_PREFIX_BYTES,
    FrameDecoder,
    RECV_CHUNK,
    MessageDecoder,
    WireCodecError,
    decode_body,
    decode_frame,
    encode_frame,
    encode_message,
)
from repro.providers.page import PageKey, PagePayload, page_checksum
from repro.version.manager import WriteTicket


def roundtrip(obj):
    return decode_frame(encode_frame(obj))


# ---------------------------------------------------------------------------
# payload round-trips (satellite: viewed/spilled payloads, bit-identical)
# ---------------------------------------------------------------------------


def test_real_bytes_payload_roundtrips_bit_identical():
    payload = PagePayload.real(bytes(range(256)) * 16)
    back = roundtrip(payload)
    assert back.nbytes == payload.nbytes
    assert back.as_bytes() == payload.as_bytes()
    assert not back.is_virtual


def test_memoryview_backed_payload_roundtrips_bit_identical():
    # the zero-copy path: split_pages carries views over the caller's
    # buffer; at the process boundary they must materialize, not break
    buf = bytes(range(256)) * 64
    view = memoryview(buf)[4096 : 4096 + 4096]
    payload = PagePayload.real(view)
    assert type(payload.data) is memoryview  # premise: it really is a view
    back = roundtrip(payload)
    assert type(back.data) is bytes  # materialized exactly once
    assert back.as_bytes() == bytes(view)
    assert page_checksum(back) == page_checksum(payload)


def test_spilled_payload_roundtrips_bit_identical(tmp_path):
    # a payload stored through the disk spill as an unmaterialized view,
    # loaded back, then shipped through the codec
    spill = DiskSpill(tmp_path)
    data = b"\xa5" * 4096
    key = PageKey("blob-x", "w#1", 3)
    spill.store(key, PagePayload.real(memoryview(data)[:]))
    loaded = spill.load(key)
    assert loaded is not None
    back = roundtrip(loaded)
    assert back.as_bytes() == data
    assert back.nbytes == 4096


def test_virtual_payload_travels_as_count_only():
    back = roundtrip(PagePayload.virtual(1 << 20))
    assert back.is_virtual
    assert back.nbytes == 1 << 20
    # a virtual terabyte page must not cost a terabyte frame
    assert len(encode_frame(PagePayload.virtual(1 << 40))) < 256


def test_plain_pickle_of_viewed_payload_also_works():
    # __reduce__ serves any pickler, not just the codec (mp.Pipe uses its own)
    payload = PagePayload.real(memoryview(b"z" * 128))
    back = pickle.loads(pickle.dumps(payload))
    assert back.as_bytes() == b"z" * 128


# ---------------------------------------------------------------------------
# metadata / control value round-trips
# ---------------------------------------------------------------------------


def test_tree_nodes_and_keys_roundtrip():
    leaf = TreeNode(
        NodeKey("blob-1", 4, 0, 4096), providers=(2, 5), write_uid="c1#9"
    )
    internal = TreeNode(
        NodeKey("blob-1", 4, 0, 8192), left_version=4, right_version=2
    )
    assert roundtrip(leaf) == leaf
    assert roundtrip(internal) == internal
    assert roundtrip(PageKey("b", "w", 7)) == PageKey("b", "w", 7)


def test_write_ticket_roundtrips():
    ticket = WriteTicket(
        blob_id="blob-2", version=9, border_refs=(((0, 4096), 3), ((8192, 4096), 7))
    )
    assert roundtrip(ticket) == ticket


def test_batched_rpc_shapes_roundtrip():
    frame = (
        17,
        "rpc",
        [
            ("data.put_page", (PageKey("b", "w", 0), PagePayload.real(b"x" * 64))),
            ("data.get_page", (PageKey("b", "w", 1),)),
        ],
    )
    req_id, kind, calls = roundtrip(frame)
    assert (req_id, kind) == (17, "rpc")
    assert calls[0][1][1].as_bytes() == b"x" * 64


# ---------------------------------------------------------------------------
# error round-trips
# ---------------------------------------------------------------------------


def test_semantic_error_survives_typed():
    err = RemoteError.wrap(VersionNotPublished("blob-3", 9, 4))
    back = roundtrip(err)
    assert isinstance(back, RemoteError)
    unwrapped = back.unwrap()
    assert isinstance(unwrapped, VersionNotPublished)
    assert (unwrapped.blob_id, unwrapped.requested, unwrapped.latest) == (
        "blob-3", 9, 4,
    )


def test_page_missing_survives_typed():
    back = roundtrip(RemoteError.wrap(PageMissing("no page")))
    assert isinstance(back.unwrap(), PageMissing)


def test_unpicklable_original_is_dropped_not_fatal():
    class Weird(Exception):
        def __init__(self):
            super().__init__("weird")
            self.payload = lambda: None  # unpicklable attribute

    err = RemoteError.wrap(Weird())
    back = roundtrip(err)
    assert isinstance(back, RemoteError)
    assert back.original is None
    assert back.error_type == "Weird"
    assert back.unwrap() is back  # non-semantic stays wrapped


# ---------------------------------------------------------------------------
# framing: self-delimiting streams, corruption
# ---------------------------------------------------------------------------


def test_frame_decoder_reassembles_across_chunk_boundaries():
    objs = [PagePayload.real(b"a" * 1000), ("ctl", 1), list(range(50))]
    stream = b"".join(encode_frame(o) for o in objs)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(stream), 7):  # adversarial 7-byte chunks
        out.extend(decoder.feed(stream[i : i + 7]))
    assert len(out) == 3
    assert out[0].as_bytes() == b"a" * 1000
    assert out[1] == ("ctl", 1)
    assert out[2] == list(range(50))
    assert decoder.pending_bytes == 0


def test_frames_stream_over_a_real_socket():
    # the length prefix makes frames self-delimiting on a raw byte stream
    left, right = socket.socketpair()
    try:
        sent = [
            (1, "rpc", [("data.get_page", (PageKey("b", "w", i),))])
            for i in range(20)
        ]
        for obj in sent:
            left.sendall(encode_frame(obj))
        decoder = FrameDecoder()
        received = []
        while len(received) < len(sent):
            received.extend(decoder.feed(right.recv(64)))
        assert received == sent
    finally:
        left.close()
        right.close()


def test_message_layer_routes_by_header_without_decoding():
    # the RPC channel: req_id lives outside the pickle body, so a router
    # can dispatch replies without paying the unpickle
    payloads = {
        7: ("rpc", [("data.get_page", (PageKey("b", "w", 1),))]),
        1 << 40: [PagePayload.real(b"y" * 500)],  # u64 ids supported
    }
    stream = b"".join(encode_message(i, obj) for i, obj in payloads.items())
    decoder = MessageDecoder()
    seen = {}
    for i in range(0, len(stream), 11):  # adversarial chunking
        for req_id, body in decoder.feed(stream[i : i + 11]):
            assert isinstance(body, bytes)  # still encoded at routing time
            seen[req_id] = decode_body(body)
    assert set(seen) == set(payloads)
    assert seen[7] == payloads[7]
    assert seen[1 << 40][0].as_bytes() == b"y" * 500
    assert decoder.pending_bytes == 0


def test_message_decoder_streams_over_real_tcp_with_byte_dribble():
    """The TCP transport's premise, proven adversarially: RPC messages
    reassemble from a *real* TCP connection (loopback listener + dialed
    socket, not a socketpair) even when the bytes arrive one at a time —
    every chunk boundary crosses the 12-byte header, including the
    header/body seam, which a socketpair test with large reads never
    exercises."""
    listener = socket.create_server(("127.0.0.1", 0))
    sender = receiver = None
    try:
        sender = socket.create_connection(listener.getsockname(), timeout=10)
        sender.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        receiver, _ = listener.accept()
        receiver.settimeout(10)

        payloads = {
            1: ("rpc", [("data.put_page", (PageKey("b", "w", 0),
                                           PagePayload.real(b"q" * 300)))]),
            2: ("stats", ()),
            1 << 40: [PagePayload.real(bytes(range(256)))],  # u64 req ids
        }
        stream = b"".join(encode_message(i, obj) for i, obj in payloads.items())
        done = []

        def dribble() -> None:
            # one byte per send: TCP may still coalesce, so the receive
            # side independently re-dribbles with recv(1)
            for k in range(len(stream)):
                sender.sendall(stream[k : k + 1])
            done.append(True)

        import threading

        feeder = threading.Thread(target=dribble, daemon=True)
        feeder.start()

        decoder = MessageDecoder()
        seen = {}
        received = 0
        while received < len(stream):
            chunk = receiver.recv(1)  # adversarial 1-byte reads
            assert chunk, "sender closed early"
            received += len(chunk)
            for req_id, body in decoder.feed(chunk):
                assert isinstance(body, bytes)  # still encoded at routing
                seen[req_id] = decode_body(body)
        feeder.join(timeout=10)
        assert done, "dribbling sender stalled"
        assert decoder.pending_bytes == 0
        assert set(seen) == set(payloads)
        assert seen[2] == ("stats", ())
        assert seen[1][1][0][1][1].as_bytes() == b"q" * 300
        assert seen[1 << 40][0].as_bytes() == bytes(range(256))
    finally:
        for sock in (sender, receiver, listener):
            if sock is not None:
                sock.close()


def test_message_decoder_rejects_corrupt_length():
    decoder = MessageDecoder()
    with pytest.raises(WireCodecError):
        list(decoder.feed(b"\xff\xff\xff\xff" + b"\x00" * 16))


def test_decode_rejects_length_mismatch():
    frame = bytearray(encode_frame(("x", 1)))
    frame[:LENGTH_PREFIX_BYTES] = (len(frame) + 5).to_bytes(4, "big")
    with pytest.raises(WireCodecError):
        decode_frame(bytes(frame))


def test_decode_rejects_truncated_and_garbage():
    with pytest.raises(WireCodecError):
        decode_frame(b"\x00\x01")
    good = encode_frame([1, 2, 3])
    corrupt = good[:LENGTH_PREFIX_BYTES] + b"\xff" * (len(good) - LENGTH_PREFIX_BYTES)
    with pytest.raises(WireCodecError):
        decode_frame(corrupt)


def test_decoder_rejects_absurd_length_prefix():
    decoder = FrameDecoder()
    with pytest.raises(WireCodecError):
        list(decoder.feed(b"\xff\xff\xff\xff garbage"))


def test_encode_rejects_unpicklable_object():
    with pytest.raises(WireCodecError):
        encode_frame(lambda: None)
    assert issubclass(WireCodecError, ReproError)


# ---------------------------------------------------------------------------
# seeded chunk-boundary fuzz (satellite of the aio driver: the async
# reader hands the decoder arbitrary partial reads, including splits
# inside the 12-byte message header, far more often than blocking
# recv loops ever do)
# ---------------------------------------------------------------------------


def _fuzz_payloads(rng):
    """A seeded mixed bag of realistic message bodies, small and large."""
    payloads = {}
    req_id = 1
    for _ in range(rng.randrange(8, 24)):
        shape = rng.randrange(4)
        if shape == 0:
            body = ("rpc", [("data.stats", ())])
        elif shape == 1:
            body = ("rpc", [
                ("data.put", (("b", rng.randrange(64), rng.randrange(8)),
                              bytes(rng.randrange(256) for _ in range(rng.randrange(0, 700)))))
            ])
        elif shape == 2:
            body = ("stats", ())
        else:
            body = ("rpc", [("meta.get", (rng.randrange(1 << 30),))] * rng.randrange(1, 5))
        payloads[req_id] = body
        req_id += rng.choice((1, 1, 1, 7, 1 << 20))  # sparse 64-bit ids too
    return payloads


def _via_feed(decoder, stream, steps):
    """Every (req_id, body) ``feed`` yields for ``stream`` cut into ``steps``."""
    out, pos = [], 0
    for step in steps:
        out.extend(decoder.feed(stream[pos : pos + step]))
        pos += step
    return out


def _via_buffer(decoder, stream, steps, sizehint=-1):
    """The same stream through the ``get_buffer``/``buffer_updated`` pair
    a ``BufferedProtocol`` transport drives: each read fills at most one
    step's worth of the offered buffer (a transport's ``recv_into``)."""
    out, pos = [], 0
    for step in steps:
        end = pos + step
        while pos < end:
            buf = decoder.get_buffer(sizehint)
            assert len(buf) > 0
            n = min(len(buf), end - pos)
            buf[:n] = stream[pos : pos + n]
            pos += n
            out.extend(decoder.buffer_updated(n))
    return out


def _fuzz_steps(rng, total, dribble=False):
    steps, pos = [], 0
    while pos < total:
        # bias toward tiny slices so header splits stay common
        step = 1 if dribble else rng.choice((1, 2, 3, 5, 11, rng.randrange(1, 96)))
        steps.append(min(step, total - pos))
        pos += step
    return steps


@pytest.mark.parametrize("seed", [0, 1, 0xC0DEC])
def test_message_decoder_fuzzed_chunk_boundaries_reassemble(seed):
    """Feed one encoded stream through the decoder in randomized 1..N-byte
    slices (seeded): every slicing must yield exactly the original
    (req_id, body) sequence, bit-identical ``bytes`` bodies, regardless
    of where the cuts land — start of stream, inside the 12-byte header,
    inside a body, or across several whole messages at once. The buffer
    interface, read into at the same cuts (with a transport's and with
    a small size hint), must yield exactly what ``feed`` yields."""
    import random as random_mod

    rng = random_mod.Random(seed)
    payloads = _fuzz_payloads(rng)
    stream = b"".join(encode_message(rid, body) for rid, body in payloads.items())

    for trial in range(25):
        steps = _fuzz_steps(rng, len(stream), dribble=trial == 0)
        decoder = MessageDecoder()
        seen = _via_feed(decoder, stream, steps)
        assert decoder.pending_bytes == 0
        for sizehint in (-1, rng.randrange(1, 64)):
            buffered = MessageDecoder()
            assert _via_buffer(buffered, stream, steps, sizehint) == seen
            assert buffered.pending_bytes == 0
        assert [rid for rid, _ in seen] == list(payloads)
        for req_id, raw in seen:
            assert type(raw) is bytes
            rebuilt = decode_body(raw)
            reference = decode_body(
                encode_message(req_id, payloads[req_id])[12:]
            )
            assert type(rebuilt) is type(reference)
            assert repr(rebuilt) == repr(reference)


@pytest.mark.parametrize("seed", [3, 0xB16])
def test_message_decoder_body_larger_than_receive_buffer(seed):
    """A message bigger than the transport-sized receive buffer grows the
    buffer to fit it: once its header is in, one offered buffer holds
    the rest of the message, and its body still comes out as one
    ``bytes`` — through the buffer interface exactly as through ``feed``,
    with small messages on both sides of it."""
    import random as random_mod

    rng = random_mod.Random(seed)
    big = rng.randbytes(RECV_CHUNK + rng.randrange(1, 300_000))
    payloads = {1: ("stats", ()), 2: [PagePayload.real(big)], 3: ("rpc", [])}
    stream = b"".join(encode_message(rid, body) for rid, body in payloads.items())
    steps = []
    while sum(steps) < len(stream):
        steps.append(min(rng.randrange(1, 300_000), len(stream) - sum(steps)))
    seen = _via_feed(MessageDecoder(), stream, steps)
    assert [rid for rid, _ in seen] == [1, 2, 3]
    assert decode_body(seen[1][1])[0].as_bytes() == big

    decoder = MessageDecoder()
    assert _via_buffer(decoder, stream, steps) == seen
    decoder = MessageDecoder()
    head = len(encode_message(1, payloads[1])) + 12  # through 2's header
    list(decoder.feed(stream[:head]))
    assert len(decoder.get_buffer(-1)) >= len(encode_message(2, payloads[2])) - 12
    list(decoder.feed(stream[head:]))
    assert decoder.pending_bytes == 0
    assert len(decoder.get_buffer(-1)) == RECV_CHUNK  # shrunk back


@pytest.mark.parametrize("seed", [2, 0xBAD])
def test_message_decoder_fuzzed_corruption_rejected_typed(seed):
    """Flip the length prefix of a random message to an absurd value (or
    truncate the stream inside a header) and the decoder must raise
    WireCodecError — never a struct error, never a silent resync — from
    ``feed`` and from the buffer interface alike, having delivered
    exactly the messages before the poisoned header."""
    import random as random_mod

    rng = random_mod.Random(seed)
    payloads = _fuzz_payloads(rng)
    frames = [encode_message(rid, body) for rid, body in payloads.items()]
    victim = rng.randrange(len(frames))
    corrupt = bytearray(b"".join(frames))
    offset = sum(len(f) for f in frames[:victim])
    corrupt[offset : offset + 4] = b"\xff\xff\xff\xff"  # > MAX_FRAME_BYTES
    corrupt = bytes(corrupt)

    step_rng = random_mod.Random(seed ^ 1)
    steps = _fuzz_steps(step_rng, len(corrupt))
    for drive in (_via_feed, _via_buffer):
        with pytest.raises(WireCodecError):
            drive(MessageDecoder(), corrupt, steps)

    # messages *before* the corruption must still have been delivered
    # (the decoder fails exactly at the poisoned header, not earlier)
    for drive in (_via_feed, _via_buffer):
        delivered = []
        decoder = MessageDecoder()
        try:
            pos = 0
            while pos < len(corrupt):
                chunk = corrupt[pos : pos + 7]
                delivered.extend(
                    rid for rid, _ in drive(decoder, chunk, [len(chunk)])
                )
                pos += len(chunk)
        except WireCodecError:
            pass
        assert delivered == list(payloads)[:victim]
