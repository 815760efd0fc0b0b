"""Wire formats of the out-of-process cache: keys, payloads, frames.

Three codecs, shared by the cache server (:mod:`repro.db.cache.server`) and
the remote backend client (:mod:`repro.db.cache.remote`):

* :func:`encode_key` — a **canonical, prefix-free** encoding of a
  ``(namespace, region, key)`` address.  Cache keys are the semantic
  fingerprints of :mod:`repro.db.cache.fingerprints` — flat structures of
  strings, numbers, ``None`` and tuples — and the encoding tags every term
  and length-prefixes every variable-size field, so distinct addresses can
  never serialize to the same bytes (two byte strings are equal only if
  every tagged term is equal) and equal addresses always serialize to the
  same bytes regardless of which process encodes them.  The property suite
  in ``tests/test_cache_server.py`` fuzzes both directions.
* :func:`encode_payload` / :func:`decode_payload` — cached values as bytes.
  Arrays travel in ``np.save`` framing (``numpy.lib.format``), which
  preserves dtype, shape and order exactly; tuples recurse; everything else
  (floats, memoized :class:`~repro.db.executor.GroupedResult` answers) falls
  back to pickle.  A payload round-trip is bit-identical — the
  backend-consistency contract of :mod:`repro.db.cache.backend` depends on
  it.
* :func:`write_frame` / :func:`read_frame` (+ the asyncio variants) — the
  length-prefixed binary framing on the socket: one frame is a 4-byte
  big-endian header length, a UTF-8 JSON header, a 4-byte payload length and
  the raw payload bytes.  Headers carry the op and the base64-encoded key;
  payloads carry values, so array bytes never pass through JSON.

Headers are plain JSON objects and *extensible*: readers ignore fields they
do not know, which is how optional metadata rides along without a protocol
bump.  The ``trace`` field on get/put (:data:`TRACE_HEADER_FIELD`, a
``{"trace_id", "span_id"}`` dict from :func:`repro.obs.trace.wire_context`)
propagates request traces across the wire — a v2+ server records its
handling as a child span, an older server simply ignores the field, and
the bytes of every *response* are identical either way.

Trust boundary: payload decoding falls back to pickle, so a cache server
must only be shared by mutually trusting processes on a trusted network.
"""

from __future__ import annotations

import base64
import io
import json
import pickle
import struct
from typing import Any, Hashable, Tuple

import numpy as np

__all__ = [
    "MAX_FRAME_HEADER",
    "MAX_FRAME_PAYLOAD",
    "TRACE_HEADER_FIELD",
    "decode_payload",
    "encode_key",
    "encode_payload",
    "key_from_header",
    "key_to_header",
    "read_frame",
    "read_frame_async",
    "write_frame",
    "write_frame_async",
]

#: Upper bounds a reader enforces before allocating (a garbage length prefix
#: must produce a clean error, not a memory bomb).  The payload bound caps
#: a single cached value at 64 MiB — an order of magnitude above the
#: largest artefact the engine shares (data cubes a few MiB at SF 1) while
#: keeping the worst case a corrupt prefix can make a reader allocate far
#: below anything that could distress a host.  The server answers an
#: over-bound length with a structured ``bad frame`` error before dropping
#: the connection; the client simply refuses to send oversized values
#: (they stay in its local tier).
MAX_FRAME_HEADER = 1 << 20  # 1 MiB of JSON header
MAX_FRAME_PAYLOAD = 1 << 26  # 64 MiB of value bytes

#: The optional request-header field carrying a trace context over the wire
#: (see the module docstring); named here so client and server agree on it.
TRACE_HEADER_FIELD = "trace"


# ----------------------------------------------------------------------
# canonical key encoding
# ----------------------------------------------------------------------
def _encode_term(value: Any, out: bytearray) -> None:
    """Append one tagged, length-prefixed term to ``out``.

    The tag distinguishes types and every variable-length field carries its
    byte length, so the concatenation of terms is prefix-free: no encoded
    address is a prefix of a different one, which is what makes the overall
    encoding injective.
    """
    if value is None:
        out += b"N"
    elif value is True:  # bool before int: True would match the int branch
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        text = str(value).encode("ascii")
        out += b"I" + struct.pack(">I", len(text)) + text
    elif isinstance(value, float):
        out += b"D" + struct.pack(">d", value)
    elif isinstance(value, str):
        text = value.encode("utf-8")
        out += b"S" + struct.pack(">I", len(text)) + text
    elif isinstance(value, bytes):
        out += b"B" + struct.pack(">I", len(value)) + value
    elif isinstance(value, tuple):
        out += b"(" + struct.pack(">I", len(value))
        for member in value:
            _encode_term(member, out)
    else:
        # Anything exotic (no engine fingerprint produces one) goes through
        # pickle, length-prefixed like every other variable-size term.
        blob = pickle.dumps(value, protocol=4)
        out += b"P" + struct.pack(">I", len(blob)) + blob


def encode_key(namespace: str, region: str, key: Hashable) -> bytes:
    """The canonical byte address of one ``(namespace, region, key)`` triple.

    Requests *also* carry namespace and region as plain header fields — the
    server addresses, clears and counts by those — so the copies baked in
    here are deliberate redundancy: every stored blob (including rows in a
    persistence file read years later) is self-describing, and the store's
    header-derived address means a client that disagreed with its own key
    bytes could only mis-file its own entries, never collide with another
    client's.
    """
    out = bytearray(b"K1")  # key-encoding version tag
    _encode_term(str(namespace), out)
    _encode_term(str(region), out)
    _encode_term(key, out)
    return bytes(out)


def key_to_header(key_bytes: bytes) -> str:
    """Key bytes as a JSON-safe header field."""
    return base64.b64encode(key_bytes).decode("ascii")


def key_from_header(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


# ----------------------------------------------------------------------
# payload encoding
# ----------------------------------------------------------------------
def encode_payload(value: Any) -> bytes:
    """Serialise one cached value; bit-exact under :func:`decode_payload`."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, value, allow_pickle=False)
        blob = buffer.getvalue()
        return b"A" + struct.pack(">I", len(blob)) + blob
    if isinstance(value, tuple):
        out = bytearray(b"(") + struct.pack(">I", len(value))
        for member in value:
            blob = encode_payload(member)
            out += struct.pack(">I", len(blob)) + blob
        return bytes(out)
    blob = pickle.dumps(value, protocol=4)
    return b"P" + struct.pack(">I", len(blob)) + blob


def decode_payload(blob: bytes) -> Any:
    """Reverse :func:`encode_payload` (arrays come back fresh and writable)."""
    value, consumed = _decode_payload(blob, 0)
    if consumed != len(blob):
        raise ValueError(f"payload has {len(blob) - consumed} trailing bytes")
    return value


def _decode_payload(blob: bytes, offset: int) -> Tuple[Any, int]:
    tag = blob[offset : offset + 1]
    if tag == b"A":
        (length,) = struct.unpack_from(">I", blob, offset + 1)
        start = offset + 5
        array = np.lib.format.read_array(
            io.BytesIO(blob[start : start + length]), allow_pickle=False
        )
        return array, start + length
    if tag == b"(":
        (count,) = struct.unpack_from(">I", blob, offset + 1)
        cursor = offset + 5
        members = []
        for _ in range(count):
            (length,) = struct.unpack_from(">I", blob, cursor)
            member, consumed = _decode_payload(blob, cursor + 4)
            if consumed != cursor + 4 + length:
                raise ValueError("tuple member length mismatch")
            members.append(member)
            cursor = consumed
        return tuple(members), cursor
    if tag == b"P":
        (length,) = struct.unpack_from(">I", blob, offset + 1)
        start = offset + 5
        return pickle.loads(blob[start : start + length]), start + length
    raise ValueError(f"unknown payload tag {tag!r}")


# ----------------------------------------------------------------------
# frame I/O (blocking, over a socket file object)
# ----------------------------------------------------------------------
def _build_frame(header: dict, payload: bytes) -> bytes:
    """The one place frame bytes are assembled — the blocking and asyncio
    writers must never drift apart in framing."""
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return (
        struct.pack(">I", len(header_bytes))
        + header_bytes
        + struct.pack(">I", len(payload))
        + payload
    )


def write_frame(stream, header: dict, payload: bytes = b"") -> int:
    """Write one frame; returns the number of bytes put on the wire."""
    frame = _build_frame(header, payload)
    stream.write(frame)
    stream.flush()
    return len(frame)


def _read_exactly(stream, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise EOFError(f"connection closed mid-frame ({remaining} bytes short)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _parse_lengths(prefix: bytes, bound: int, what: str) -> int:
    (length,) = struct.unpack(">I", prefix)
    if length > bound:
        raise ValueError(f"{what} length {length} exceeds the {bound}-byte bound")
    return length


def read_frame(stream) -> Tuple[dict, bytes, int]:
    """Read one frame; returns ``(header, payload, bytes_on_the_wire)``.

    Raises ``EOFError`` on a cleanly closed connection.  The byte count is
    the full frame — both length prefixes and the header included — so the
    receive counters match what the sender's :func:`write_frame` reported.
    """
    header_len = _parse_lengths(_read_exactly(stream, 4), MAX_FRAME_HEADER, "header")
    header = json.loads(_read_exactly(stream, header_len).decode("utf-8"))
    payload_len = _parse_lengths(_read_exactly(stream, 4), MAX_FRAME_PAYLOAD, "payload")
    payload = _read_exactly(stream, payload_len) if payload_len else b""
    if not isinstance(header, dict):
        raise ValueError("frame header must be a JSON object")
    return header, payload, 8 + header_len + payload_len


# ----------------------------------------------------------------------
# frame I/O (asyncio, server side)
# ----------------------------------------------------------------------
async def read_frame_async(reader) -> Tuple[dict, bytes, int]:
    """Asyncio twin of :func:`read_frame` (raises ``IncompleteReadError``/
    ``ValueError`` on malformed input; the server answers structurally)."""
    header_len = _parse_lengths(await reader.readexactly(4), MAX_FRAME_HEADER, "header")
    header = json.loads((await reader.readexactly(header_len)).decode("utf-8"))
    payload_len = _parse_lengths(await reader.readexactly(4), MAX_FRAME_PAYLOAD, "payload")
    payload = await reader.readexactly(payload_len) if payload_len else b""
    if not isinstance(header, dict):
        raise ValueError("frame header must be a JSON object")
    return header, payload, 8 + header_len + payload_len


async def write_frame_async(writer, header: dict, payload: bytes = b"") -> int:
    frame = _build_frame(header, payload)
    writer.write(frame)
    await writer.drain()
    return len(frame)
