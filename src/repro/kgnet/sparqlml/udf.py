"""User-defined functions bridging the RDF engine and GMLaaS.

The paper maps each user-defined predicate to a UDF inside the RDF engine;
at query time the UDF issues an HTTP call to the GML Inference Manager
(Figs 11-12).  :func:`register_udfs` installs the same functions on a
:class:`~repro.sparql.endpoint.SPARQLEndpoint`, backed by an in-process
:class:`~repro.kgnet.gmlaas.service.GMLaaS` instance.

Every function is one :class:`~repro.sparql.functions.BatchResolver`: where
a rewritten query calls it as a SELECT item or BIND the evaluator's ``infer``
node hands it the distinct inputs of a whole batch of rows, and anywhere
else (a hand-written nested call, the reference evaluator) it is the same
resolver called with one input — one inference code path.  A resolver
reports the GMLaaS ("HTTP") calls it made, so the count a query reports is
its own, whatever else the service is serving.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import UDFError, integer_parameter
from repro.kgnet.gmlaas.service import GMLaaS
from repro.rdf.terms import Literal
from repro.sparql.endpoint import SPARQLEndpoint
from repro.sparql.functions import BatchResolver, OpaqueValue

__all__ = ["register_udfs"]

Resolved = Tuple[List[object], int]


def _k(term) -> int:
    """A call's ``k`` by the ``infer_*`` ops' integer rule, so a malformed
    one is a :class:`~repro.exceptions.BadRequestError` on both routes."""
    return integer_parameter(
        term.to_python() if isinstance(term, Literal) else term, "k")


def _ranked_route(gmlaas: GMLaaS, mode: str, default_k: int,
                  pick: Callable[[List[Dict[str, object]]], object]
                  ) -> Callable[[List[tuple]], Resolved]:
    """A resolver for ``(model, input[, k])`` calls over a batched GMLaaS
    route: one HTTP call per distinct ``(model, k)`` — one, for a rewritten
    query — and ``pick`` of every input's ranked candidates."""

    def resolve(inputs: List[tuple]) -> Resolved:
        groups: Dict[Tuple[str, int], List[int]] = {}
        shared = group = None
        for index, args in enumerate(inputs):
            if (args[0], args[2:]) != shared:  # model and k: constants, as a rule
                shared = (args[0], args[2:])
                k = _k(args[2]) if len(args) > 2 else default_k
                group = groups.setdefault((str(args[0]), k), [])
            group.append(index)
        outputs: List[object] = [None] * len(inputs)
        for (model_uri, k), members in groups.items():
            ranked = gmlaas.infer(
                model_uri, [inputs[index][1] for index in members], mode, k)
            for index, ranking in zip(members, ranked):
                outputs[index] = pick(ranking)
        return outputs, len(groups)

    return resolve


def _best(ranked: List[Dict[str, object]]) -> Optional[object]:
    return ranked[0]["entity"] if ranked else None


def _joined(ranked: List[Dict[str, object]]) -> Optional[str]:
    return ", ".join([result["entity"] for result in ranked]) or None


def register_udfs(endpoint: SPARQLEndpoint, gmlaas: GMLaaS) -> None:
    """Register the SPARQL-ML UDF suite on ``endpoint`` backed by ``gmlaas``."""

    def node_class(inputs: List[tuple]) -> Resolved:
        """``sql:UDFS.getNodeClass(model, node)`` — the predicted class of
        one node, one HTTP call per node (the Fig 11 plan); a node the model
        has no prediction for has no class."""
        return [gmlaas.infer_node_class(model, node)
                for model, node in inputs], len(inputs)

    def node_classes(inputs: List[tuple]) -> Resolved:
        """``sql:UDFS.getNodeClasses(model[, 'iri1,iri2,...'])`` — the
        node -> class dictionary of the model (of the listed nodes, when
        given) in one HTTP call: the inner sub-select of the Fig 12 plan,
        looked up per row by ``getKeyValue``."""
        outputs = []
        for model, *nodes in inputs:
            wanted = [part.strip() for part in str(nodes[0]).split(",")
                      if part.strip()] if nodes else None
            outputs.append(gmlaas.infer_node_class_dictionary(
                str(model), wanted))
        return outputs, len(inputs)

    def key_value(inputs: List[tuple]) -> Resolved:
        """``sql:UDFS.getKeyValue(dict, key)`` — local lookup, no HTTP call."""
        outputs, held, lookup = [], None, None
        for dictionary, key in inputs:
            if dictionary is not held:  # one dictionary per query, as a rule
                held = dictionary
                if isinstance(dictionary, OpaqueValue):
                    dictionary = dictionary.value
                if not isinstance(dictionary, dict):
                    raise UDFError("getKeyValue expects the dictionary "
                                   "produced by getNodeClasses")
                lookup = dictionary.get
            outputs.append(lookup(str(key)))
        return outputs, 0

    for name, resolve, limit in (
            ("getNodeClass", node_class, 1),
            ("getNodeClasses", node_classes, None),
            ("getKeyValue", key_value, None),
            # (model, source[, k]): the best / the top-k predicted links, and
            # (model, entity[, k]): the k most similar entities, each list as
            # one comma-separated string.
            ("getLinkPred", _ranked_route(gmlaas, "links", 1, _best), None),
            ("getTopKLinks", _ranked_route(gmlaas, "links", 10, _joined), None),
            ("getSimilarEntities",
             _ranked_route(gmlaas, "similar", 10, _joined), None)):
        endpoint.register_udf(f"sql:UDFS.{name}", aliases=[f"UDFS.{name}", name],
                              batch=BatchResolver(resolve, limit))
