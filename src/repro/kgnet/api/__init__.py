"""Versioned, transport-agnostic service API for the KGNet platform.

The paper architects KGNet as services talking JSON over HTTP (§IV); this
package is that surface: typed request/response envelopes
(:mod:`~repro.kgnet.api.envelopes`), a stable error-code contract
(:mod:`~repro.kgnet.api.errors`), an operation router with per-route metrics
and cursor pagination (:mod:`~repro.kgnet.api.router`), and a pure-JSON
client (:mod:`~repro.kgnet.api.client`).
"""

from repro.kgnet.api.client import APIClient
from repro.kgnet.api.envelopes import API_VERSION, APIRequest, APIResponse
from repro.kgnet.api.errors import (
    INTERNAL_ERROR,
    error_code,
    error_payload,
    exception_from_payload,
)
from repro.kgnet.api.router import APIRouter

__all__ = [
    "API_VERSION",
    "APIClient",
    "APIRequest",
    "APIResponse",
    "APIRouter",
    "INTERNAL_ERROR",
    "error_code",
    "error_payload",
    "exception_from_payload",
]
