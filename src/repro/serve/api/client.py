"""Blocking-socket client for the prediction API.

:class:`ApiClient` is the reference consumer of the wire protocol in
:mod:`repro.serve.api.protocol`: it frames requests, correlates
responses by ``id`` (so pipelined requests may be answered out of
order), and raises :class:`ApiError` on error responses, exposing the
backpressure fields (``retry_after_ms`` and the shed-to-baseline
``fallback`` result) that an overloaded server attaches. The test suite
and the docs/API.md snippet drive servers through this class; a
scheduler integrating against the service can use it directly or treat
it as executable protocol documentation.
"""

from __future__ import annotations

import socket
from typing import Any

from repro.errors import ReproError
from repro.serve.api.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
)

__all__ = ["ApiClient", "ApiError"]


class ApiError(ReproError):
    """An error response from the server, with backpressure context.

    ``code`` is the wire error code (e.g. ``overloaded``),
    ``retry_after_ms`` the server's retry hint when it applied
    backpressure, and ``fallback`` the optional shed-to-baseline result
    a client may use instead of retrying.
    """

    def __init__(self, code: str, message: str, *,
                 retry_after_ms: float | None = None,
                 fallback: dict[str, Any] | None = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.retry_after_ms = retry_after_ms
        self.fallback = fallback


class ApiClient:
    """One TCP connection to an :class:`~repro.serve.api.ApiServer`.

    Usable as a context manager; requests are assigned monotonically
    increasing integer ids, and :meth:`request` blocks until *this*
    request's response arrives (buffering any other pipelined responses
    that land first).
    """

    def __init__(self, host: str, port: int, *,
                 timeout_s: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout_s)
        self._buffer = b""
        self._responses: dict[Any, dict[str, Any]] = {}
        self._next_id = 0
        self._closed = False

    def __enter__(self) -> "ApiClient":
        """Enter a ``with`` block; the connection is already open."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Close the connection on ``with`` exit."""
        self.close()

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass

    # -- framing -------------------------------------------------------

    def _recv_frame(self) -> dict[str, Any]:
        while True:
            if len(self._buffer) >= HEADER_BYTES:
                length = int.from_bytes(self._buffer[:HEADER_BYTES], "big")
                end = HEADER_BYTES + length
                if len(self._buffer) >= end:
                    payload = self._buffer[HEADER_BYTES:end]
                    self._buffer = self._buffer[end:]
                    return decode_payload(payload)
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ReproError(
                    "server closed the connection mid-response"
                )
            self._buffer += chunk

    def send(self, message: dict[str, Any]) -> Any:
        """Send one request frame without waiting; returns its id.

        ``v`` and ``id`` are filled in when absent. Pair with
        :meth:`wait` to collect the response later — this is how a
        client keeps many requests in flight on one connection.
        """
        message = dict(message)
        message.setdefault("v", PROTOCOL_VERSION)
        if "id" not in message:
            self._next_id += 1
            message["id"] = self._next_id
        self._sock.sendall(
            encode_frame(message, max_frame_bytes=MAX_FRAME_BYTES)
        )
        return message["id"]

    def wait(self, request_id: Any) -> dict[str, Any]:
        """Block until the response for ``request_id`` arrives.

        Responses are correlated by ``id``; any other pipelined
        responses read along the way are buffered for their own
        :meth:`wait` calls. Raises :class:`ApiError` on an error
        response.
        """
        while request_id not in self._responses:
            response = self._recv_frame()
            self._responses[response.get("id")] = response
        response = self._responses.pop(request_id)
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        raise ApiError(
            error.get("code", "unknown"),
            error.get("message", "unspecified error"),
            retry_after_ms=error.get("retry_after_ms"),
            fallback=response.get("result"),
        )

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request and block for its result."""
        return self.wait(self.send(message))

    # -- convenience ops -----------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Round-trip a ``ping``; returns the pong result."""
        return self.request({"op": "ping"})

    def predict(self, latency_app: str, batch: str,
                instances: int) -> dict[str, Any]:
        """Ask for the predicted degradation of one co-location."""
        return self.request({
            "op": "predict", "latency_app": latency_app,
            "batch": batch, "instances": instances,
        })

    def place(self, latency_app: str, batch: str,
              max_instances: int) -> dict[str, Any]:
        """Ask for the max QoS-safe instance count of a placement."""
        return self.request({
            "op": "place", "latency_app": latency_app,
            "batch": batch, "max_instances": max_instances,
        })

    def stats(self) -> dict[str, Any]:
        """Fetch the server's live serving counters."""
        return self.request({"op": "stats"})

    def metrics(self) -> dict[str, Any]:
        """Fetch the server's live telemetry frame and recent series.

        ``enabled`` is False when the server has no telemetry sampler
        installed; otherwise ``frame`` holds a fresh sample of the
        serving channels and ``frames`` the recorded tail (what
        ``repro.cli obs top`` polls when given ``host:port``).
        """
        return self.request({"op": "metrics"})

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to drain gracefully and stop."""
        return self.request({"op": "shutdown"})
