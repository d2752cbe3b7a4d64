"""The KGNet platform facade (paper Fig 3).

:class:`KGNet` wires together every component of the reproduction:

* an in-process SPARQL endpoint hosting the data KG and the KGMeta graph,
* GML-as-a-Service (training manager, model store, inference),
* the KGMeta governor,
* the SPARQL-ML service (parser, optimizer, rewriter, UDFs),
* the versioned service API (:class:`~repro.kgnet.api.router.APIRouter` and
  :class:`~repro.kgnet.api.client.APIClient`).

Since the API redesign the facade is a thin backwards-compatible wrapper:
every method builds an :class:`~repro.kgnet.api.envelopes.APIRequest`,
dispatches it through :attr:`KGNet.api`, and unwraps the rich in-process
result (re-raising the original exception on error envelopes).  The same
router answers :attr:`KGNet.client` — an :class:`APIClient` speaking pure
JSON — so programmatic callers and remote transports share one contract.

Typical usage::

    from repro.kgnet import KGNet
    from repro.datasets import generate_dblp_kg, dblp_paper_venue_task

    platform = KGNet()
    platform.load_graph(generate_dblp_kg())
    report = platform.train_task(dblp_paper_venue_task())
    answers = platform.query(SPARQL_ML_QUERY_TEXT)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.exceptions import PlatformError
from repro.gml.tasks import TaskSpec
from repro.gml.train.budget import TaskBudget
from repro.kgnet.api.client import APIClient
from repro.kgnet.api.envelopes import APIRequest, APIResponse
from repro.kgnet.api.router import APIRouter
from repro.kgnet.gmlaas.service import GMLaaS
from repro.kgnet.gmlaas.training_manager import TrainingManagerConfig
from repro.kgnet.kgmeta.governor import KGMetaGovernor, ModelMetadata
from repro.kgnet.meta_sampler import MetaSamplingConfig
from repro.kgnet.sparqlml.optimizer import ModelSelectionObjective
from repro.kgnet.sparqlml.service import (
    DeleteReport,
    SelectReport,
    SPARQLMLService,
    TrainReport,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Triple
from repro.sparql.endpoint import SPARQLEndpoint

__all__ = ["KGNet"]


class KGNet:
    """On-demand GML as a service on top of an RDF engine."""

    def __init__(self, endpoint: Optional[SPARQLEndpoint] = None,
                 training_config: Optional[TrainingManagerConfig] = None,
                 storage=None,
                 scheduler=None,
                 admission=None,
                 default_query_timeout: Optional[float] = None,
                 max_query_timeout: Optional[float] = None) -> None:
        #: Hostile-load protection, all opt-in (see repro.concurrency):
        #: a :class:`~repro.concurrency.QueryScheduler` time-slices SPARQL
        #: queries fairly, an :class:`~repro.concurrency.AdmissionController`
        #: sheds excess load before it executes, and the timeouts bound /
        #: cap per-query deadlines.  The caller owns the scheduler's
        #: lifecycle (``scheduler.close()``).
        #: Optional :class:`repro.storage.engine.StorageEngine`.  When given
        #: (and no explicit endpoint), the endpoint is built over the
        #: engine's recovered dataset, every write commits through its WAL,
        #: and the ``admin/persist`` / ``admin/restore`` / ``admin/bulk_load``
        #: routes come alive.
        self.storage = storage
        if storage is not None:
            dataset = storage.open()
            if endpoint is None:
                endpoint = SPARQLEndpoint(dataset=dataset)
            elif endpoint.dataset is not dataset:
                # An endpoint over some *other* dataset next to a storage
                # engine is a silent no-durability trap: nothing the caller
                # writes would ever reach the WAL, while admin/restore would
                # clobber their data with the unrelated on-disk state.
                raise PlatformError(
                    "endpoint and storage are not wired together: either "
                    "pass only storage=, or build the endpoint over "
                    "storage.open()'s dataset")
        self.endpoint = endpoint or SPARQLEndpoint()
        self.gmlaas = GMLaaS(config=training_config)
        self.governor = KGMetaGovernor(self.endpoint)
        self.sparqlml = SPARQLMLService(self.endpoint, self.gmlaas, self.governor)
        #: The versioned service API every facade method dispatches through.
        self.api = APIRouter(self.endpoint, self.gmlaas, self.governor,
                             self.sparqlml, storage=storage,
                             scheduler=scheduler, admission=admission,
                             default_query_timeout=default_query_timeout,
                             max_query_timeout=max_query_timeout)
        #: A JSON-only client bound to the same router (transport-agnostic).
        self.client = APIClient.for_router(self.api)

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------
    def _dispatch(self, op: str, **params) -> APIResponse:
        """Route one operation through the API, unwrapping error envelopes."""
        response = self.api.dispatch(APIRequest(op=op, params=params))
        response.raise_for_error()
        return response

    # ------------------------------------------------------------------
    # Data loading
    # ------------------------------------------------------------------
    def load_graph(self, triples: Union[Graph, Iterable[Triple]],
                   graph_iri: Optional[Union[str, IRI]] = None) -> int:
        """Load a knowledge graph into the endpoint (default graph by default)."""
        return self._dispatch("load", triples=triples,
                              graph_iri=graph_iri).attachment

    @property
    def graph(self) -> Graph:
        return self.endpoint.graph

    # ------------------------------------------------------------------
    # SPARQL / SPARQL-ML execution
    # ------------------------------------------------------------------
    def sparql(self, query_text: str):
        """Run a plain SPARQL query / update; the parser routes the kind."""
        return self._dispatch("sparql", query=query_text).attachment

    def execute(self, query_text: str, **kwargs):
        """Run a SPARQL-ML request (SELECT / INSERT-TrainGML / DELETE)."""
        return self._dispatch("sparqlml", query=query_text, **kwargs).attachment

    def query(self, query_text: str,
              objective: Optional[ModelSelectionObjective] = None,
              force_plan: Optional[str] = None) -> SelectReport:
        """Run a SPARQL-ML SELECT query and return results + execution report."""
        return self._dispatch("sparqlml_select", query=query_text,
                              objective=objective,
                              force_plan=force_plan).attachment

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_task(self, task: TaskSpec, budget: Optional[TaskBudget] = None,
                   method: Optional[str] = None,
                   meta_sampling: Optional[Union[str, MetaSamplingConfig]] = None,
                   use_meta_sampling: bool = True,
                   name: Optional[str] = None) -> TrainReport:
        """Train a GML model for ``task`` (programmatic TrainGML)."""
        return self._dispatch("train", task=task, budget=budget, method=method,
                              meta_sampling=meta_sampling,
                              use_meta_sampling=use_meta_sampling,
                              name=name).attachment

    def train_sparqlml(self, insert_query: str, **kwargs) -> TrainReport:
        """Train from a SPARQL-ML INSERT query (paper Fig 8)."""
        return self._dispatch("train", query=insert_query, **kwargs).attachment

    # ------------------------------------------------------------------
    # Model management / inspection
    # ------------------------------------------------------------------
    def list_models(self) -> List[ModelMetadata]:
        return self._dispatch("list_models").attachment

    def describe_model(self, model_uri: Union[str, IRI]) -> Dict[str, object]:
        return self._dispatch("describe_model", model_uri=model_uri).attachment

    def delete_models(self, delete_query: str) -> DeleteReport:
        """Delete models via a SPARQL-ML DELETE query (paper Fig 9)."""
        return self._dispatch("delete_models", query=delete_query).attachment

    # ------------------------------------------------------------------
    # Direct inference helpers (bypassing SPARQL-ML)
    # ------------------------------------------------------------------
    def predict_node_class(self, model_uri: Union[str, IRI],
                           node_iri: Union[str, IRI]) -> Optional[str]:
        return self._dispatch("infer_node_class", model_uri=model_uri,
                              node=node_iri).attachment

    def predict_links(self, model_uri: Union[str, IRI], source_iri: Union[str, IRI],
                      k: int = 10) -> List[Dict[str, object]]:
        return self._dispatch("infer_links", model_uri=model_uri,
                              source=source_iri, k=k).attachment

    def similar_entities(self, model_uri: Union[str, IRI], entity_iri: Union[str, IRI],
                         k: int = 10) -> List[Dict[str, object]]:
        return self._dispatch("infer_similar", model_uri=model_uri,
                              entity=entity_iri, k=k).attachment

    def infer_batch(self, model_uri: Union[str, IRI], inputs: List[str],
                    k: int = 10, mode: Optional[str] = None) -> List[Dict[str, object]]:
        """Batched inference: one amortised call for many inputs."""
        return self._dispatch("infer_batch", model_uri=model_uri,
                              inputs=inputs, k=k, mode=mode).attachment

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def http_calls(self) -> int:
        """Inference HTTP calls served by GMLaaS since start-up."""
        return self.gmlaas.http_calls

    def statistics(self) -> Dict[str, object]:
        return self._dispatch("stats").attachment

    def api_metrics(self) -> Dict[str, Dict[str, object]]:
        """Per-route latency/throughput counters of the service API."""
        return self.api.metrics()

    def __repr__(self) -> str:
        return (f"<KGNet kg_triples={len(self.endpoint.graph)} "
                f"models={len(self.gmlaas.model_store)}>")
