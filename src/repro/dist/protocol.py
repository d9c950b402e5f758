"""The exploration service wire format: length-prefixed TCP frames.

Deliberately minimal — no pickle on the wire (a server must not
execute arbitrary bytecode from its clients), no negotiation, no
versioned handshake beyond a one-byte tag per frame.  Both sides speak
*frames*::

    !I payload_length | payload

Integers are big-endian.  Requests and responses carry a client-chosen
request id and one UTF-8 JSON object:

``SERVE``  request  ``!Q request_id | !I len | utf-8 JSON object``
``OK``     response ``!Q request_id | !I len | utf-8 JSON object``
``ERR``    response ``!Q request_id | !I len | utf-8 JSON object``
``EVENT``  response ``!Q request_id | !I len | utf-8 JSON object``

``request_id`` is echoed on every response, so one connection can
multiplex any number of in-flight requests; the ``EVENT`` tag streams
observability records (framed JSONL) for a request that is still
running.  Anything malformed — a frame longer than :data:`MAX_FRAME`,
a truncated body, trailing bytes, an unknown tag, a body that is not a
JSON object — raises :class:`ProtocolError`.
"""

import json
import struct

from ..errors import ReproError

#: Per-frame ceiling; a frame above this is treated as corruption, not
#: data.
MAX_FRAME = 64 * 1024 * 1024

# Request opcode (one byte).
OP_SERVE = b"Q"

# Response status tags.
STATUS_OK = b"K"
STATUS_ERR = b"E"
STATUS_EVENT = b"V"

_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")


class ProtocolError(ReproError):
    """A malformed, truncated or oversized frame."""


def pack_frame(payload):
    """Frame ``payload`` with its 4-byte length prefix."""
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            "frame of {} bytes exceeds the {} byte limit".format(
                len(payload), MAX_FRAME))
    return _U32.pack(len(payload)) + payload


def frame_length(prefix):
    """Decode a length prefix, validating it against :data:`MAX_FRAME`."""
    if len(prefix) != 4:
        raise ProtocolError("truncated frame length prefix")
    (length,) = _U32.unpack(prefix)
    if length > MAX_FRAME:
        raise ProtocolError(
            "declared frame of {} bytes exceeds the {} byte limit".format(
                length, MAX_FRAME))
    return length


class _Reader:
    """Cursor over one payload with truncation-checked reads."""

    __slots__ = ("data", "pos")

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        end = self.pos + n
        if end > len(self.data):
            raise ProtocolError("truncated frame body")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def chunk(self):
        return bytes(self.take(_U32.unpack(self.take(4))[0]))

    def done(self):
        if self.pos != len(self.data):
            raise ProtocolError(
                "{} trailing byte(s) after frame body".format(
                    len(self.data) - self.pos))


def _chunk(data):
    return _U32.pack(len(data)) + data


def _json_chunk(body):
    try:
        text = json.dumps(body, sort_keys=True)
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            "serve body is not JSON-able: {}".format(error)) from None
    return _chunk(text.encode("utf-8"))


def _read_json(reader):
    raw = reader.chunk()
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError("malformed serve JSON body") from None
    if not isinstance(body, dict):
        raise ProtocolError(
            "serve body must be a JSON object, got {}".format(
                type(body).__name__))
    return body


def encode_serve_request(request_id, body):
    """Serve request payload: op byte, client request id, JSON body."""
    return OP_SERVE + _U64.pack(request_id) + _json_chunk(body)


def decode_serve_request(payload):
    """``(request_id, body)`` of one serve request (server side)."""
    if not payload:
        raise ProtocolError("empty request frame")
    if payload[:1] != OP_SERVE:
        raise ProtocolError(
            "unknown request op {!r}".format(payload[:1]))
    reader = _Reader(payload[1:])
    request_id = _U64.unpack(reader.take(8))[0]
    body = _read_json(reader)
    reader.done()
    return request_id, body


def encode_serve_ok(request_id, body):
    """Success response for one serve request."""
    return STATUS_OK + _U64.pack(request_id) + _json_chunk(body)


def encode_serve_err(request_id, message, code="error"):
    """Structured error response (``code`` is machine-matchable)."""
    return STATUS_ERR + _U64.pack(request_id) + _json_chunk(
        {"error": str(message), "code": code})


def encode_serve_event(request_id, record):
    """One streamed observability record for a running request."""
    return STATUS_EVENT + _U64.pack(request_id) + _json_chunk(record)


def decode_serve_response(payload):
    """``(kind, request_id, body)`` of one serve response (client side).

    ``kind`` is ``"ok"``, ``"err"`` or ``"event"``; an ``ERR`` does
    *not* raise here — the error body carries a structured ``code`` the
    client maps onto its own exceptions.
    """
    if not payload:
        raise ProtocolError("empty response frame")
    status = payload[:1]
    kinds = {STATUS_OK: "ok", STATUS_ERR: "err", STATUS_EVENT: "event"}
    if status not in kinds:
        raise ProtocolError(
            "unknown response status {!r}".format(status))
    reader = _Reader(payload[1:])
    request_id = _U64.unpack(reader.take(8))[0]
    body = _read_json(reader)
    reader.done()
    return kinds[status], request_id, body
