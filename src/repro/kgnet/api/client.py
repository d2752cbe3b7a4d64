"""A transport-agnostic client for the KGNet service API.

:class:`APIClient` never touches platform internals: every call builds an
:class:`~repro.kgnet.api.envelopes.APIRequest`, serialises it to a JSON
string, hands it to a *transport* callable (``str -> str``), and parses the
JSON string that comes back into an
:class:`~repro.kgnet.api.envelopes.APIResponse`.  The default transport
drives an in-process :class:`~repro.kgnet.api.router.APIRouter` through the
same JSON boundary a real HTTP server would use, so anything that works here
works unchanged over a socket.

    client = APIClient.in_process()           # private platform
    client = APIClient.for_router(router)     # share a platform's router
    client = APIClient(transport=post_json)   # any str -> str channel
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.kgnet.api.envelopes import APIRequest, APIResponse
from repro.kgnet.api.router import APIRouter

__all__ = ["APIClient"]

Transport = Callable[[str], str]


def _json_transport(router: APIRouter) -> Transport:
    """The reference transport: JSON string in, JSON string out."""
    def send(raw: str) -> str:
        request = APIRequest.from_json(raw)
        return router.dispatch(request).to_json()
    return send


class APIClient:
    """Calls the service API through envelopes only."""

    def __init__(self, transport: Transport) -> None:
        self._transport = transport

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_router(cls, router: APIRouter) -> "APIClient":
        """A client speaking JSON to an existing router."""
        return cls(_json_transport(router))

    @classmethod
    def in_process(cls, **platform_kwargs) -> "APIClient":
        """A client owning a private in-process platform."""
        from repro.kgnet.platform import KGNet
        return cls.for_router(KGNet(**platform_kwargs).api)

    # ------------------------------------------------------------------
    # Core call
    # ------------------------------------------------------------------
    def send(self, request: APIRequest, check: bool = True) -> APIResponse:
        """Serialise, transport, deserialise; raise the mapped error if any."""
        response = APIResponse.from_json(self._transport(request.to_json()))
        if check:
            response.raise_for_error()
        return response

    def call(self, op: str, check: bool = True, **params) -> Dict[str, object]:
        """Invoke ``op`` and return the response's ``result`` payload."""
        response = self.send(APIRequest(op=op, params=params), check=check)
        return response.result if response.result is not None else {}

    # ------------------------------------------------------------------
    # Operations (thin, named wrappers over ``call``)
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, object]:
        return self.call("ping")

    def load_graph(self, triples, graph_iri: Optional[str] = None) -> Dict[str, object]:
        """Load a KG; accepts an N-Triples string or any triple iterable."""
        if isinstance(triples, str):
            return self.call("load", ntriples=triples, graph_iri=graph_iri)
        from repro.rdf.io import serialize_ntriples
        return self.call("load", ntriples=serialize_ntriples(triples),
                         graph_iri=graph_iri)

    def sparql(self, query: str, page_size: Optional[int] = None) -> Dict[str, object]:
        return self.call("sparql", query=query, page_size=page_size)

    def sparqlml(self, query: str, **options) -> Dict[str, object]:
        return self.call("sparqlml", query=query, **options)

    def query(self, query: str, objective: Optional[Dict[str, object]] = None,
              force_plan: Optional[str] = None,
              page_size: Optional[int] = None) -> Dict[str, object]:
        return self.call("sparqlml_select", query=query, objective=objective,
                         force_plan=force_plan, page_size=page_size)

    def train(self, query: Optional[str] = None,
              task: Optional[Dict[str, object]] = None,
              **options) -> Dict[str, object]:
        return self.call("train", query=query, task=task, **options)

    def infer_node_class(self, model_uri: str, node: str) -> Optional[str]:
        result = self.call("infer_node_class", model_uri=model_uri, node=node)
        output = result.get("output")
        return None if output is None else str(output)

    def infer_links(self, model_uri: str, source: str, k: int = 10) -> List[Dict[str, object]]:
        return list(self.call("infer_links", model_uri=model_uri,
                              source=source, k=k).get("output") or [])

    def infer_similar(self, model_uri: str, entity: str, k: int = 10) -> List[Dict[str, object]]:
        return list(self.call("infer_similar", model_uri=model_uri,
                              entity=entity, k=k).get("output") or [])

    def infer_batch(self, model_uri: str, inputs: List[str], k: int = 10,
                    mode: Optional[str] = None,
                    page_size: Optional[int] = None) -> Dict[str, object]:
        return self.call("infer_batch", model_uri=model_uri, inputs=list(inputs),
                         k=k, mode=mode, page_size=page_size)

    def next_page(self, cursor: str,
                  page_size: Optional[int] = None) -> Dict[str, object]:
        return self.call("next_page", cursor=cursor, page_size=page_size)

    def iter_pages(self, first_result: Dict[str, object],
                   key: str) -> Iterator[object]:
        """Yield every item of a paginated result, following cursors."""
        for item in first_result.get(key) or []:
            yield item
        cursor = first_result.get("next_cursor")
        while cursor:
            page = self.next_page(str(cursor))
            for item in page.get("items") or []:
                yield item
            cursor = page.get("next_cursor")

    def list_models(self) -> List[Dict[str, object]]:
        return list(self.call("list_models").get("models") or [])

    def describe_model(self, model_uri: str) -> Dict[str, object]:
        return dict(self.call("describe_model", model_uri=model_uri).get("model") or {})

    def delete_models(self, query: str) -> Dict[str, object]:
        return self.call("delete_models", query=query)

    def stats(self) -> Dict[str, object]:
        return self.call("stats")

    def metrics(self) -> Dict[str, object]:
        return dict(self.call("metrics").get("routes") or {})
