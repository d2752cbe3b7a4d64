"""SPARQL-ML as a Service: the Query Manager (paper Fig 3, left-hand box).

The service receives SPARQL-ML requests and routes them:

* **INSERT** (``kgnet.TrainGML``) — meta-sample a task-specific subgraph
  from one pinned snapshot of the data graph, run the GMLaaS training
  pipeline, register the model in KGMeta,
* **DELETE** — remove matching models from GMLaaS and their KGMeta metadata,
* **SELECT** — find candidate models in KGMeta for every user-defined
  predicate, pick the near-optimal model and execution plan, rewrite the
  query to plain SPARQL + UDF calls (once per text, dataset epoch and
  model-store generation: the outcome is cached), and evaluate the
  rewritten AST on the endpoint,
* anything else — passed through to the endpoint as plain SPARQL.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import astuple, dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.exceptions import ModelNotFoundError
from repro.kgnet.gmlaas.service import GMLaaS, TrainResponse
from repro.kgnet.kgmeta import ontology as O
from repro.kgnet.kgmeta.governor import KGMetaGovernor, ModelMetadata
from repro.kgnet.meta_sampler import MetaSampler, MetaSamplingConfig
from repro.kgnet.sparqlml.optimizer import (
    ModelSelectionObjective,
    PlanChoice,
    SPARQLMLOptimizer,
)
from repro.kgnet.sparqlml.parser import (
    DeleteModelRequest,
    SPARQLMLParser,
    TrainGMLRequest,
    UserDefinedPredicate,
)
from repro.kgnet.sparqlml.rewriter import RewrittenQuery, SPARQLMLRewriter
from repro.kgnet.sparqlml.udf import register_udfs
from repro.rdf.terms import RDF_TYPE
from repro.sparql.ast import SelectQuery
from repro.sparql.cache import EpochLRU
from repro.sparql.endpoint import SPARQLEndpoint
from repro.sparql.execution import ExecutionContext
from repro.sparql.plan import QueryPlan
from repro.sparql.results import ResultSet

__all__ = ["TrainReport", "SelectReport", "DeleteReport", "SPARQLMLService"]


@dataclass
class TrainReport:
    """Outcome of a SPARQL-ML INSERT (TrainGML) request."""

    model_uri: str
    task_name: str
    task_type: str
    method: str
    metrics: Dict[str, float]
    meta_sampling: Dict[str, object]
    training: Dict[str, object]
    within_budget: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "model_uri": self.model_uri,
            "task_name": self.task_name,
            "task_type": self.task_type,
            "method": self.method,
            "metrics": self.metrics,
            "meta_sampling": self.meta_sampling,
            "training": self.training,
            "within_budget": self.within_budget,
        }


@dataclass
class SelectReport:
    """How a SPARQL-ML SELECT was executed."""

    results: ResultSet
    rewritten: List[RewrittenQuery] = field(default_factory=list)
    models: List[ModelMetadata] = field(default_factory=list)
    plans: List[PlanChoice] = field(default_factory=list)
    http_calls: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_results": len(self.results),
            "models": [m.uri.value for m in self.models],
            "plans": [p.as_dict() for p in self.plans],
            "http_calls": self.http_calls,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "rewritten": [r.as_dict() for r in self.rewritten],
        }


@dataclass
class DeleteReport:
    """Outcome of a SPARQL-ML DELETE request."""

    deleted_models: List[str]
    deleted_triples: int

    def as_dict(self) -> Dict[str, object]:
        return {"deleted_models": self.deleted_models,
                "deleted_triples": self.deleted_triples}


class _CompiledSelect(NamedTuple):
    """What compiling one SPARQL-ML SELECT decided: per user-defined
    predicate the chosen model, its plan and the rewrite (the last rewrite
    holds the query that runs), plus that query's plan trees."""

    models: List[ModelMetadata]
    plans: List[PlanChoice]
    rewritten: List[RewrittenQuery]
    plan: QueryPlan


class SPARQLMLService:
    """Query Manager + KGMeta Governor + Meta-sampler glued together."""

    def __init__(self, endpoint: SPARQLEndpoint, gmlaas: GMLaaS,
                 governor: KGMetaGovernor) -> None:
        self.endpoint = endpoint
        self.gmlaas = gmlaas
        self.governor = governor
        self.parser = SPARQLMLParser(namespaces=endpoint.namespaces)
        self.optimizer = SPARQLMLOptimizer()
        self.rewriter = SPARQLMLRewriter()
        self.meta_sampler = MetaSampler()
        #: Compiled SELECTs by (text, forced plan, objective, namespaces),
        #: good for the dataset (the endpoint's can be swapped), the epoch
        #: and the GMLaaS model-store generation they were compiled at —
        #: KGMeta lives in the dataset, so training or deleting a model drops
        #: them like any other write does.  Results are not cached here (the
        #: HTTP service reads SPARQL-ML answers through the endpoint's
        #: ResultCache).
        self._compiled = EpochLRU(endpoint.plan_cache.maxsize)
        register_udfs(endpoint, gmlaas)

    # ------------------------------------------------------------------
    # INSERT — training
    # ------------------------------------------------------------------
    def execute_train(self, query_text: str,
                      meta_sampling: Optional[MetaSamplingConfig] = None,
                      use_meta_sampling: bool = True,
                      method: Optional[str] = None) -> TrainReport:
        request = self.parser.parse_train(query_text)
        return self.train_request(request, meta_sampling=meta_sampling,
                                  use_meta_sampling=use_meta_sampling,
                                  method=method)

    def train_request(self, request: TrainGMLRequest,
                      meta_sampling: Optional[MetaSamplingConfig] = None,
                      use_meta_sampling: bool = True,
                      method: Optional[str] = None) -> TrainReport:
        """Run the full training flow for an already-parsed TrainGML request."""
        task = request.task
        # One pinned snapshot: meta-sampling (or full-KG training) never
        # sees a concurrent write.
        training_graph = self.endpoint.graph.snapshot()
        sampling_report: Dict[str, object] = {"enabled": False}
        if use_meta_sampling:
            config = meta_sampling or MetaSamplingConfig.default_for_task(task.task_type)
            training_graph, report = self.meta_sampler.extract(
                training_graph, task, config)
            sampling_report = report.as_dict()
            sampling_report["enabled"] = True

        chosen_method = method or request.method
        model_uri = self.governor.mint_model_uri(task, chosen_method or "auto")
        response: TrainResponse = self.gmlaas.train(
            training_graph, task, model_uri,
            budget=request.budget, method=chosen_method)

        metadata = ModelMetadata(
            uri=model_uri,
            task_type=task.task_type,
            model_class=O.classifier_class_for_task(task.task_type),
            method=response.method,
            accuracy=response.metrics.get("accuracy",
                                          response.metrics.get("hits@10", 0.0)),
            inference_seconds=response.inference_seconds,
            training_seconds=response.elapsed_seconds,
            training_memory_bytes=response.peak_memory_bytes,
            cardinality=int(response.transform.get("num_target_nodes", 0)),
            sampler=response.method,
            meta_sampling=str(sampling_report.get("config", "none")),
            target_node_type=task.target_node_type,
            label_predicate=task.label_predicate,
            source_node_type=task.source_node_type,
            destination_node_type=task.destination_node_type,
            target_predicate=task.target_predicate,
            entity_node_type=task.entity_node_type,
        )
        self.governor.register_model(task, metadata)
        return TrainReport(
            model_uri=model_uri.value,
            task_name=task.name,
            task_type=task.task_type,
            method=response.method,
            metrics=response.metrics,
            meta_sampling=sampling_report,
            training=response.as_dict(),
            within_budget=response.within_budget,
        )

    # ------------------------------------------------------------------
    # DELETE
    # ------------------------------------------------------------------
    def execute_delete(self, query_text: str) -> DeleteReport:
        request = self.parser.parse_delete(query_text)
        return self.delete_request(request)

    def delete_request(self, request: DeleteModelRequest) -> DeleteReport:
        matching = self.governor.find_models(request.model_class, request.constraints)
        deleted: List[str] = []
        removed_triples = 0
        for metadata in matching:
            removed_triples += self.governor.delete_model(metadata.uri)
            self.gmlaas.delete_model(metadata.uri)
            deleted.append(metadata.uri.value)
        return DeleteReport(deleted_models=deleted, deleted_triples=removed_triples)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def execute_select(self, query_text: str,
                       objective: Optional[ModelSelectionObjective] = None,
                       force_plan: Optional[str] = None,
                       context: Optional[ExecutionContext] = None) -> SelectReport:
        """Compile the SELECT (or find it compiled) and evaluate it.

        ``context`` bounds the evaluation, inference calls included: the
        ``infer`` nodes of the rewritten query checkpoint before every call.
        """
        key = (query_text, force_plan,
               None if objective is None else astuple(objective),
               self.endpoint.namespaces.version)
        dataset = self.endpoint.dataset
        epoch = (weakref.ref(dataset), dataset.epoch(),
                 self.gmlaas.model_store.generation)
        compiled, hit = self._compiled.get(key, epoch)
        if compiled is None:
            # Not compiled at this epoch, or a model has come to or left
            # GMLaaS since (behind KGMeta's back or not): choose again (or
            # fail) rather than serve a choice of a model that is gone.
            compiled = self._compile_select(query_text, objective, force_plan)
            if compiled is None:  # no user-defined predicate: plain SPARQL
                return SelectReport(results=self.endpoint.execute(
                    query_text, require="query", context=context))
            self._compiled.put(key, epoch, compiled)
        statistics = []
        started = time.perf_counter()
        results = self.endpoint.run_query(
            compiled.rewritten[-1].query, compiled.rewritten[-1].text,
            plan=compiled.plan, cache_hit=hit, context=context,
            on_stats=statistics.append)
        elapsed = time.perf_counter() - started
        return SelectReport(results=results, rewritten=list(compiled.rewritten),
                            models=list(compiled.models),
                            plans=list(compiled.plans),
                            http_calls=statistics[0].inference_calls,
                            elapsed_seconds=elapsed)

    def _compile_select(self, query_text: str,
                        objective: Optional[ModelSelectionObjective],
                        force_plan: Optional[str]) -> Optional[_CompiledSelect]:
        """Parse, choose a model and a plan per user-defined predicate and
        rewrite AST to AST; ``None`` when the query has no such predicate."""
        query, predicates = self.parser.parse_select(query_text)
        if not predicates:
            return None
        compiled = _CompiledSelect([], [], [], QueryPlan())
        for predicate in predicates:
            model = self._choose_model(predicate, objective)
            plan = self._choose_plan(query, predicate, model, force_plan)
            rewritten = self.rewriter.rewrite(query, predicate, model.uri, plan)
            query = rewritten.query
            compiled.models.append(model)
            compiled.plans.append(plan)
            compiled.rewritten.append(rewritten)
        return compiled

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _choose_model(self, predicate: UserDefinedPredicate,
                      objective: Optional[ModelSelectionObjective]) -> ModelMetadata:
        candidates = self.governor.find_models(predicate.model_class,
                                               predicate.constraints)
        # Only keep models whose artefacts are actually available in GMLaaS.
        candidates = [c for c in candidates if self.gmlaas.has_model(c.uri)]
        if not candidates:
            raise ModelNotFoundError(
                f"no trained model available for predicate {predicate.variable.n3()} "
                f"of class {predicate.model_class.n3()}")
        return self.optimizer.select_model(candidates, objective)

    def _choose_plan(self, query: SelectQuery, predicate: UserDefinedPredicate,
                     model: ModelMetadata, force_plan: Optional[str]) -> PlanChoice:
        target_cardinality = self._estimate_target_cardinality(query, predicate, model)
        model_cardinality = model.cardinality or target_cardinality
        return self.optimizer.choose_plan(target_cardinality, model_cardinality,
                                          force_plan=force_plan)

    def _estimate_target_cardinality(self, query: SelectQuery,
                                     predicate: UserDefinedPredicate,
                                     model: ModelMetadata) -> int:
        """Cardinality of the variable the UDF will be applied to.

        Uses the data KG statistics: the number of instances of the model's
        target node type when known, otherwise the most selective triple
        pattern count involving the subject variable.
        """
        if model.target_node_type is not None:
            count = self.endpoint.graph.count(None, RDF_TYPE, model.target_node_type)
            if count:
                return count
        if model.source_node_type is not None:
            count = self.endpoint.graph.count(None, RDF_TYPE, model.source_node_type)
            if count:
                return count
        subject = predicate.subject_variable
        best = 0
        for pattern in query.where.triple_patterns():
            if subject is not None and pattern.subject == subject and \
                    not isinstance(pattern.object, type(subject)):
                try:
                    count = self.endpoint.graph.count(
                        None,
                        pattern.predicate if not isinstance(pattern.predicate, type(subject)) else None,
                        pattern.object if not isinstance(pattern.object, type(subject)) else None)
                    best = max(best, count)
                except Exception:
                    continue
        return best or len(self.endpoint.graph)
