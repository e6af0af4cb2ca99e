"""Network-facing prediction API (wire protocol, server, client).

The serving stack of :mod:`repro.serve` answers placement questions
in-process; this package puts the same :class:`~repro.serve.service.Decider`
interface behind a socket so an external scheduler can query it before
every co-location decision, the way SMTcheck-style deployments run the
predictor as a live service. Three modules:

- :mod:`repro.serve.api.protocol` — the versioned, length-prefixed JSON
  wire format shared by both ends (documented in ``docs/API.md``),
- :mod:`repro.serve.api.server` — the asyncio micro-batching server
  with bounded-queue backpressure and multi-process sharding,
- :mod:`repro.serve.api.client` — the blocking reference client used by
  tests and the docs snippets.
"""

from __future__ import annotations

from repro.serve.api.client import ApiClient, ApiError
from repro.serve.api.protocol import (
    MAX_FRAME_BYTES,
    MAX_INSTANCES,
    PROTOCOL_VERSION,
    ApiProtocolError,
)
from repro.serve.api.server import ApiServer, run_api_shards

__all__ = [
    "ApiClient",
    "ApiError",
    "ApiProtocolError",
    "ApiServer",
    "MAX_FRAME_BYTES",
    "MAX_INSTANCES",
    "PROTOCOL_VERSION",
    "run_api_shards",
]
