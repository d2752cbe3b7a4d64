"""The network service layer: SPARQL 1.1 Protocol + kgnet/v1 over HTTP.

The paper's platform is reached as a *service* — applications send SPARQL
(and SPARQL-ML) requests to an endpoint URL, not to a Python object.  This
package is that last mile:

* :mod:`repro.server.service` — the transport-agnostic boundary:
  :class:`ServiceRequest` / :class:`ServiceResponse` value objects, the
  :class:`ServiceHandler` that routes the W3C SPARQL 1.1 Protocol
  (``GET/POST /sparql``) and the versioned JSON envelope API
  (``POST /kgnet/v1/<op>``) through one :class:`~repro.kgnet.api.router.APIRouter`,
  and the principled error-code → HTTP status mapping,
* :mod:`repro.server.http` — a pure-stdlib HTTP/1.1 server
  (:class:`KGNetHTTPServer`) that drives the handler from a bounded
  :class:`~repro.concurrency.WorkerPool` and streams large results with
  chunked transfer encoding,
* :mod:`repro.server.client` — :class:`RemoteClient`, a pure-stdlib network
  client mirroring :class:`~repro.kgnet.api.client.APIClient`'s surface over
  a persistent HTTP connection, plus raw SPARQL-protocol calls.

Everything dispatches through the same router the in-process facade uses, so
metrics, plan caching and storage admin routes apply to network traffic
unchanged.
"""

from repro.server.client import RemoteClient
from repro.server.http import KGNetHTTPServer, serve
from repro.server.service import (
    HTTP_STATUS_BY_CODE,
    ServiceHandler,
    ServiceRequest,
    ServiceResponse,
    http_status_for_error,
)

__all__ = [
    "HTTP_STATUS_BY_CODE",
    "KGNetHTTPServer",
    "RemoteClient",
    "ServiceHandler",
    "ServiceRequest",
    "ServiceResponse",
    "http_status_for_error",
    "serve",
]
