"""The wire protocol of the network-facing prediction API.

One connection carries a stream of **frames**. A frame is a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON
(one object per frame). Requests carry ``{"v": 1, "op": ..., "id": ...}``
plus op-specific fields; every request is answered by exactly one
response frame echoing ``id`` — but responses are **not** ordered: a
client that pipelines requests must correlate by ``id``. The full
reference, including every error code and the backpressure semantics,
lives in ``docs/API.md``; this module is the executable half of that
contract (framing, validation, response construction) shared by the
server and the client.

Versioning rule: ``PROTOCOL_VERSION`` bumps only on incompatible frame
or schema changes; a server answers a request whose ``v`` it does not
speak with an ``unsupported_version`` error naming the version it does.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ReproError

__all__ = [
    "ApiProtocolError",
    "E_BAD_FRAME",
    "E_BAD_REQUEST",
    "E_BAD_VERSION",
    "E_DRAINING",
    "E_FRAME_TOO_LARGE",
    "E_INTERNAL",
    "E_OVERLOADED",
    "E_UNKNOWN_OP",
    "E_UNKNOWN_WORKLOAD",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "MAX_INSTANCES",
    "OPS",
    "PROTOCOL_VERSION",
    "decode_payload",
    "encode_frame",
    "error_response",
    "ok_response",
    "read_frame",
    "validate_request",
]

#: Wire-protocol version; echoed in every response. Bumped only on
#: incompatible framing or schema changes (see docs/API.md).
PROTOCOL_VERSION = 1

#: Length-prefix width: 4-byte big-endian unsigned frame length.
HEADER_BYTES = 4

#: Default ceiling on a single frame's payload, either direction. A
#: request larger than this is answered with ``frame_too_large`` and the
#: connection is closed (the remaining bytes cannot be trusted).
MAX_FRAME_BYTES = 64 * 1024

#: Ceiling on ``instances`` / ``max_instances`` in a request; far above
#: any real SMT context count, it only bounds attacker-supplied work.
MAX_INSTANCES = 64

#: The request operations the server understands. ``metrics`` was added
#: without a version bump: new fieldless ops are additive (old servers
#: answer ``unknown_op``, which clients can treat as "not supported").
OPS = ("ping", "predict", "place", "stats", "metrics", "shutdown")

# Error codes (the ``error.code`` field of a failed response).
E_BAD_FRAME = "bad_frame"  #: unparseable frame payload; connection closes
E_FRAME_TOO_LARGE = "frame_too_large"  #: frame over limit; connection closes
E_BAD_VERSION = "unsupported_version"  #: request ``v`` not spoken
E_BAD_REQUEST = "bad_request"  #: schema violation in an op's fields
E_UNKNOWN_OP = "unknown_op"  #: ``op`` not one of :data:`OPS`
E_UNKNOWN_WORKLOAD = "unknown_workload"  #: unresolvable app/profile name
E_OVERLOADED = "overloaded"  #: queue bound hit; 429-style shed-to-baseline
E_DRAINING = "draining"  #: server is shutting down; no new work accepted
E_INTERNAL = "internal"  #: decider raised while answering


class ApiProtocolError(ReproError):
    """A request (or frame) the server must answer with an error.

    ``code`` is the wire error code; ``close`` marks violations after
    which the byte stream can no longer be trusted (bad framing), so the
    server responds and then drops the connection.
    """

    def __init__(self, code: str, message: str, *,
                 close: bool = False) -> None:
        super().__init__(message)
        self.code = code
        self.close = close


def encode_frame(message: dict[str, Any], *,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    if len(payload) > max_frame_bytes:
        raise ApiProtocolError(
            E_FRAME_TOO_LARGE,
            f"frame payload is {len(payload)} bytes "
            f"(limit {max_frame_bytes})", close=True,
        )
    return len(payload).to_bytes(HEADER_BYTES, "big") + payload


def decode_payload(payload: bytes) -> dict[str, Any]:
    """Parse one frame's payload into a message object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ApiProtocolError(
            E_BAD_FRAME, f"frame payload is not valid JSON: {exc}",
            close=True,
        ) from exc
    if not isinstance(message, dict):
        raise ApiProtocolError(
            E_BAD_FRAME, "frame payload must be a JSON object", close=True,
        )
    return message


async def read_frame(reader, *,
                     max_frame_bytes: int = MAX_FRAME_BYTES
                     ) -> dict[str, Any]:
    """Read one frame from an asyncio stream reader.

    Raises :class:`asyncio.IncompleteReadError` on a clean or mid-frame
    disconnect and :class:`ApiProtocolError` on framing violations.
    """
    header = await reader.readexactly(HEADER_BYTES)
    length = int.from_bytes(header, "big")
    if length > max_frame_bytes:
        raise ApiProtocolError(
            E_FRAME_TOO_LARGE,
            f"announced frame length {length} exceeds the "
            f"{max_frame_bytes}-byte limit", close=True,
        )
    return decode_payload(await reader.readexactly(length))


def _require_name(message: dict[str, Any], field: str) -> str:
    value = message.get(field)
    if not isinstance(value, str) or not value:
        raise ApiProtocolError(
            E_BAD_REQUEST, f"field {field!r} must be a non-empty string",
        )
    return value


def _require_count(message: dict[str, Any], field: str) -> int:
    value = message.get(field)
    if not isinstance(value, int) or isinstance(value, bool) \
            or not 1 <= value <= MAX_INSTANCES:
        raise ApiProtocolError(
            E_BAD_REQUEST,
            f"field {field!r} must be an integer in [1, {MAX_INSTANCES}]",
        )
    return value


def validate_request(message: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """Check one request against the protocol schema.

    Returns ``(op, fields)`` where ``fields`` holds the validated
    op-specific arguments. Raises :class:`ApiProtocolError` with the
    wire error code on any violation.
    """
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ApiProtocolError(
            E_BAD_VERSION,
            f"this server speaks protocol v{PROTOCOL_VERSION}, "
            f"request carried v={version!r}",
        )
    request_id = message.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ApiProtocolError(
            E_BAD_REQUEST, "field 'id' must be a string or integer",
        )
    op = message.get("op")
    if not isinstance(op, str):
        raise ApiProtocolError(E_BAD_REQUEST,
                               "field 'op' must be a string")
    if op not in OPS:
        raise ApiProtocolError(
            E_UNKNOWN_OP, f"unknown op {op!r}; known: {', '.join(OPS)}",
        )
    fields: dict[str, Any] = {}
    if op == "place":
        fields["latency_app"] = _require_name(message, "latency_app")
        fields["batch"] = _require_name(message, "batch")
        fields["max_instances"] = _require_count(message, "max_instances")
    elif op == "predict":
        fields["latency_app"] = _require_name(message, "latency_app")
        fields["batch"] = _require_name(message, "batch")
        fields["instances"] = _require_count(message, "instances")
    return op, fields


def ok_response(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    """Build a success response envelope."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
            "result": result}


def error_response(request_id: Any, code: str, message: str, *,
                   retry_after_ms: float | None = None,
                   result: dict[str, Any] | None = None) -> dict[str, Any]:
    """Build an error response envelope.

    ``retry_after_ms`` is the backpressure hint carried by
    ``overloaded`` responses; ``result`` optionally carries the
    shed-to-baseline fallback answer so a client can degrade gracefully
    without a retry.
    """
    error: dict[str, Any] = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = retry_after_ms
    response: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request_id,
                                "ok": False, "error": error}
    if result is not None:
        response["result"] = result
    return response
