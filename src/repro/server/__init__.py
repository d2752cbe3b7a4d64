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
* :mod:`repro.server.http` — an HTTP/1.1 server (:class:`KGNetHTTPServer`)
  that owns its accept loop and one buffered loop per connection (no
  ``http.server`` / ``socketserver``), runs connections on a bounded
  :class:`~repro.concurrency.WorkerPool`, answers with one ``sendall`` per
  byte body, streams large results with chunked transfer encoding, and
  cancels a disconnected client's query through a lazy socket probe
  instead of a watcher thread,
* :mod:`repro.server.client` — :class:`RemoteClient`, a pure-stdlib network
  client mirroring :class:`~repro.kgnet.api.client.APIClient`'s surface over
  a persistent HTTP connection, plus raw SPARQL-protocol calls.

Everything dispatches through the same router the in-process facade uses, so
metrics, plan caching and storage admin routes apply to network traffic
unchanged.
"""

from repro.server.http import KGNetHTTPServer, serve
from repro.server.service import (
    HTTP_STATUS_BY_CODE,
    ServiceHandler,
    ServiceRequest,
    ServiceResponse,
    http_status_for_error,
)


def __getattr__(name: str):
    # The client loads http.client, which a serving process never needs.
    if name == "RemoteClient":
        from repro.server.client import RemoteClient
        return RemoteClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
