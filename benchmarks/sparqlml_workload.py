"""SPARQL-ML benchmark workload generator.

Paper §III-C calls out the need for benchmarks that evaluate SPARQL-ML query
optimization: query sets that *"vary in the number of user-defined predicates
and [are] associated with variables of different cardinalities"*.  This module
generates such workloads against whatever models are registered in KGMeta:

* :class:`WorkloadQuery` — one generated query plus the ground facts about it
  (which predicates it uses, the target-variable cardinality, an optional
  selectivity filter),
* :class:`SPARQLMLWorkloadGenerator` — builds a workload of N queries over a
  platform, mixing node-classification and link-prediction predicates, single-
  and multi-predicate queries, and different selectivities,
* :func:`run_workload` — executes a workload and reports per-query plan
  choice, HTTP calls and execution time (the numbers an optimizer benchmark
  would compare).

It drives ``bench_ablation_sparqlml_workload.py`` beside it; the platform
itself never imports it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import SPARQLMLError
from repro.gml.tasks import TaskType
from repro.kgnet.kgmeta.governor import ModelMetadata
from repro.rdf.terms import IRI, RDF_TYPE

__all__ = ["WorkloadQuery", "WorkloadReport", "SPARQLMLWorkloadGenerator",
           "run_workload"]


@dataclass
class WorkloadQuery:
    """One generated SPARQL-ML query and its ground-truth characteristics."""

    name: str
    text: str
    num_predicates: int
    task_types: List[str]
    target_cardinality: int
    selectivity: float = 1.0

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "num_predicates": self.num_predicates,
            "task_types": ",".join(self.task_types),
            "target_cardinality": self.target_cardinality,
            "selectivity": self.selectivity,
        }


@dataclass
class WorkloadReport:
    """Execution summary of one workload query."""

    query: WorkloadQuery
    plan: str
    http_calls: int
    rows: int
    elapsed_seconds: float

    def as_row(self) -> Dict[str, object]:
        row = self.query.describe()
        row.update({
            "plan": self.plan,
            "http_calls": self.http_calls,
            "rows": self.rows,
            "exec_time_s": round(self.elapsed_seconds, 4),
        })
        return row


class SPARQLMLWorkloadGenerator:
    """Generates SPARQL-ML SELECT workloads from the models in KGMeta."""

    def __init__(self, platform, seed: int = 0) -> None:
        self.platform = platform
        self.rng = np.random.default_rng(seed)
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Model discovery
    # ------------------------------------------------------------------
    def _models_by_task(self) -> Dict[str, List[ModelMetadata]]:
        grouped: Dict[str, List[ModelMetadata]] = {}
        for metadata in self.platform.list_models():
            grouped.setdefault(metadata.task_type, []).append(metadata)
        return grouped

    def _cardinality(self, node_type: Optional[IRI]) -> int:
        if node_type is None:
            return 0
        return self.platform.graph.count(None, RDF_TYPE, node_type)

    # ------------------------------------------------------------------
    # Query templates
    # ------------------------------------------------------------------
    @staticmethod
    def _prefixes() -> str:
        return ("prefix dblp: <https://www.dblp.org/>\n"
                "prefix yago: <http://yago-knowledge.org/resource/>\n"
                "prefix kgnet: <https://www.kgnet.com/>\n")

    def _nc_block(self, model: ModelMetadata, index: int,
                  subject_var: str) -> (str, str):
        predicate_var = f"?Classifier{index}"
        object_var = f"?prediction{index}"
        block = (
            f"{subject_var} a {model.target_node_type.n3()}.\n"
            f"{subject_var} {predicate_var} {object_var}.\n"
            f"{predicate_var} a kgnet:NodeClassifier.\n"
            f"{predicate_var} kgnet:TargetNode {model.target_node_type.n3()}.\n"
            f"{predicate_var} kgnet:NodeLabel {model.label_predicate.n3()}.\n")
        return block, object_var

    def _lp_block(self, model: ModelMetadata, index: int,
                  subject_var: str) -> (str, str):
        predicate_var = f"?Predictor{index}"
        object_var = f"?link{index}"
        block = (
            f"{subject_var} a {model.source_node_type.n3()}.\n"
            f"{subject_var} {predicate_var} {object_var}.\n"
            f"{predicate_var} a kgnet:LinkPredictor.\n"
            f"{predicate_var} kgnet:SourceNode {model.source_node_type.n3()}.\n"
            f"{predicate_var} kgnet:DestinationNode {model.destination_node_type.n3()}.\n"
            f"{predicate_var} kgnet:TopK-Links 1.\n")
        return block, object_var

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def single_predicate_query(self, model: ModelMetadata,
                               selectivity: float = 1.0) -> WorkloadQuery:
        """A Fig 2 / Fig 10 style query over one user-defined predicate.

        ``selectivity`` < 1 adds a FILTER that keeps roughly that fraction of
        the target instances, varying the cardinality the optimizer sees.
        """
        index = next(self._counter)
        subject_var = "?target"
        if model.task_type == TaskType.NODE_CLASSIFICATION:
            block, object_var = self._nc_block(model, index, subject_var)
            seed_type = model.target_node_type
        elif model.task_type == TaskType.LINK_PREDICTION:
            block, object_var = self._lp_block(model, index, subject_var)
            seed_type = model.source_node_type
        else:
            raise SPARQLMLError(
                f"cannot generate a workload query for task {model.task_type!r}")
        filter_clause = ""
        if selectivity < 1.0:
            # Filter on the numeric suffix of the IRI: keeps ~selectivity of them.
            modulo = max(1, int(round(1.0 / max(selectivity, 1e-6))))
            filter_clause = (f'FILTER(REGEX(STR({subject_var}), '
                             f'"[0-9]*{modulo - 1}$"))\n')
        text = (self._prefixes() +
                f"select {subject_var} {object_var}\nwhere {{\n"
                + block + filter_clause + "}")
        cardinality = self._cardinality(seed_type)
        return WorkloadQuery(
            name=f"q{index}_{model.task_type}",
            text=text,
            num_predicates=1,
            task_types=[model.task_type],
            target_cardinality=int(cardinality * min(1.0, selectivity)),
            selectivity=selectivity)

    def multi_predicate_query(self, models: Sequence[ModelMetadata]) -> WorkloadQuery:
        """One query using several user-defined predicates (distinct variables)."""
        if not models:
            raise SPARQLMLError("multi-predicate query needs at least one model")
        index = next(self._counter)
        blocks: List[str] = []
        outputs: List[str] = []
        subjects: List[str] = []
        task_types: List[str] = []
        cardinality = 0
        for position, model in enumerate(models):
            subject_var = f"?target{position}"
            if model.task_type == TaskType.NODE_CLASSIFICATION:
                block, object_var = self._nc_block(model, index * 10 + position,
                                                   subject_var)
                cardinality = max(cardinality, self._cardinality(model.target_node_type))
            elif model.task_type == TaskType.LINK_PREDICTION:
                block, object_var = self._lp_block(model, index * 10 + position,
                                                   subject_var)
                cardinality = max(cardinality, self._cardinality(model.source_node_type))
            else:
                continue
            blocks.append(block)
            outputs.append(object_var)
            subjects.append(subject_var)
            task_types.append(model.task_type)
        text = (self._prefixes() +
                "select " + " ".join(subjects + outputs) + "\nwhere {\n"
                + "".join(blocks) + "}")
        return WorkloadQuery(
            name=f"q{index}_multi{len(blocks)}",
            text=text,
            num_predicates=len(blocks),
            task_types=task_types,
            target_cardinality=cardinality)

    def generate(self, num_queries: int = 8,
                 selectivities: Sequence[float] = (1.0, 0.5, 0.1)) -> List[WorkloadQuery]:
        """Build a mixed workload of single- and multi-predicate queries."""
        grouped = self._models_by_task()
        usable = [m for models in grouped.values() for m in models
                  if m.task_type in (TaskType.NODE_CLASSIFICATION,
                                     TaskType.LINK_PREDICTION)]
        if not usable:
            raise SPARQLMLError(
                "no node-classification or link-prediction models registered; "
                "train models before generating a workload")
        queries: List[WorkloadQuery] = []
        while len(queries) < num_queries:
            remaining = num_queries - len(queries)
            # Every third query (when possible) combines two predicates.
            if remaining >= 1 and len(usable) >= 2 and len(queries) % 3 == 2:
                pair = list(self.rng.choice(len(usable), size=2, replace=False))
                queries.append(self.multi_predicate_query([usable[pair[0]],
                                                           usable[pair[1]]]))
                continue
            model = usable[int(self.rng.integers(len(usable)))]
            selectivity = float(selectivities[len(queries) % len(selectivities)])
            queries.append(self.single_predicate_query(model, selectivity=selectivity))
        return queries


def run_workload(platform, queries: Sequence[WorkloadQuery],
                 force_plan: Optional[str] = None) -> List[WorkloadReport]:
    """Execute every workload query and collect plan / HTTP-call statistics."""
    reports: List[WorkloadReport] = []
    for query in queries:
        result = platform.query(query.text, force_plan=force_plan)
        plan = result.plans[-1].plan if result.plans else "none"
        reports.append(WorkloadReport(
            query=query,
            plan=plan,
            http_calls=result.http_calls,
            rows=len(result.results),
            elapsed_seconds=result.elapsed_seconds))
    return reports
