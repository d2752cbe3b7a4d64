"""The GML Training Manager: the automated pipeline of paper Fig 6.

Given a (task-specific) RDF subgraph, a task description and a budget, the
manager runs the end-to-end pipeline:

1. **Dataset transformation** — RDF triples to sparse matrices
   (:class:`~repro.gml.transform.RDFGraphTransformer`), with literal /
   label-edge removal and the train/valid/test split.
2. **Optimal method selection** — cost-estimate every applicable method's
   training plan at this manager's config, and choose one under the task
   budget (:class:`~repro.kgnet.gmlaas.method_selector.MethodSelector`).
   The chosen method's estimate is the one the TrainGML report carries.
3. **Training** — build the chosen method's model and trainer (full-batch,
   GraphSAINT/ShaDow mini-batch, KGE or MorsE) from its entry in
   :data:`~repro.kgnet.gmlaas.method_selector.GML_METHODS`, the plan the
   estimate priced, and train it, tracking time and memory; the trainer
   checks the budget between epochs and stops a run that exceeds it.
4. **Artefact preparation** — produce everything GMLaaS inference needs
   (prediction dictionaries, entity embeddings and names).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.gml.data import GraphData, TriplesData
from repro.gml.tasks import TaskSpec, TaskType
from repro.gml.train import TaskBudget, TrainingResult
from repro.gml.transform import RDFGraphTransformer, TransformReport
from repro.kgnet.gmlaas.method_selector import (
    GML_METHODS,
    MethodSelection,
    MethodSelector,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal

__all__ = ["TrainingManagerConfig", "GMLTrainingManager"]


@dataclass
class TrainingManagerConfig:
    """Hyper-parameters of the automated pipeline; ``GML_METHODS`` derives
    each method's training plan from them."""

    feature_dim: int = 32
    hidden_dim: int = 32
    embedding_dim: int = 32
    epochs_full_batch: int = 30
    epochs_sampling: int = 15
    epochs_kge: int = 30
    #: Adam's step for the GNN methods (RGCN, GCN, GAT, GraphSAINT, ShaDow);
    #: KGE and MorsE train at ``LINK_PREDICTION_LEARNING_RATE``.
    learning_rate: float = 0.02
    split_strategy: str = "random"
    seed: int = 0


@dataclass
class TrainingOutcome:
    """Everything the platform learns from one training run."""

    task: TaskSpec
    result: TrainingResult
    selection: MethodSelection
    transform_report: TransformReport
    artifacts: Dict[str, object] = field(default_factory=dict)


class GMLTrainingManager:
    """Automates GML training for one task on one (sub)graph."""

    def __init__(self, config: Optional[TrainingManagerConfig] = None) -> None:
        self.config = config or TrainingManagerConfig()
        self.selector = MethodSelector(self.config)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def train(self, graph: Graph, task: TaskSpec,
              budget: Optional[TaskBudget] = None,
              method: Optional[str] = None) -> TrainingOutcome:
        """Run the full pipeline; returns the training outcome."""
        budget = budget or TaskBudget()
        transformer = RDFGraphTransformer(
            feature_dim=self.config.feature_dim,
            split_strategy=self.config.split_strategy,
            seed=self.config.seed)

        if task.task_type == TaskType.NODE_CLASSIFICATION:
            data, report = transformer.to_node_classification_data(
                graph, task.target_node_type, task.label_predicate)
        elif task.task_type == TaskType.LINK_PREDICTION:
            data, report = transformer.to_link_prediction_data(
                graph, task.target_predicate)
        elif task.task_type == TaskType.ENTITY_SIMILARITY:
            # Entity similarity trains a KGE model over the whole subgraph;
            # there is no held-out edge set, so reuse the LP transformation
            # with the most frequent predicate as a pseudo target.
            data, report = self._entity_similarity_data(transformer, graph)
        else:  # pragma: no cover - TaskSpec already validates
            raise TrainingError(f"unsupported task type {task.task_type!r}")

        selection = self.selector.select(
            task.task_type, data, budget=budget,
            candidate_methods=[method] if method is not None else None)

        result = GML_METHODS[selection.method].trainer(self.config, data,
                                                       budget).train()
        artifacts = self._build_artifacts(task, data, result)
        return TrainingOutcome(task=task, result=result, selection=selection,
                               transform_report=report, artifacts=artifacts)

    # ------------------------------------------------------------------
    # Inference artefacts
    # ------------------------------------------------------------------
    def _build_artifacts(self, task: TaskSpec, data,
                         result: TrainingResult) -> Dict[str, object]:
        if task.task_type == TaskType.NODE_CLASSIFICATION:
            return self._node_classification_artifacts(task, data, result)
        if task.task_type == TaskType.LINK_PREDICTION:
            return self._link_prediction_artifacts(data, result)
        return self._entity_similarity_artifacts(data, result)

    def _node_classification_artifacts(self, task: TaskSpec, data: GraphData,
                                       result: TrainingResult) -> Dict[str, object]:
        model = result.model
        target_type = task.target_node_type.value if task.target_node_type else None
        if data.node_types is not None and target_type in data.node_type_names:
            type_id = data.node_type_names.index(target_type)
            target_nodes = np.flatnonzero(data.node_types == type_id)
        else:
            target_nodes = data.labeled_nodes()
        predictions = model.predict(data, target_nodes)
        prediction_map = {
            data.node_names[int(node)]: data.class_names[int(label)]
            for node, label in zip(target_nodes, predictions)
            if data.node_names and int(label) < len(data.class_names)
        }
        return {
            "prediction_map": prediction_map,
            "class_names": list(data.class_names),
            "num_predictions": len(prediction_map),
        }

    def _link_prediction_artifacts(self, data: TriplesData,
                                   result: TrainingResult) -> Dict[str, object]:
        target_relation = data.target_relation if data.target_relation is not None else 0
        # Candidate tails: entities observed as objects of the target relation.
        candidate_tails = np.unique(data.triples[data.triples[:, 1] == target_relation, 2])
        return {
            "entity_names": list(data.entity_names),
            "entity_index": {name: i for i, name in enumerate(data.entity_names)},
            "entity_embeddings": result.model.entity_vectors(data.split("train"),
                                                             data.num_entities),
            "target_relation": int(target_relation),
            "candidate_tails": candidate_tails,
        }

    def _entity_similarity_artifacts(self, data: TriplesData,
                                     result: TrainingResult) -> Dict[str, object]:
        return {
            "entity_names": list(data.entity_names),
            "entity_embeddings": result.model.entity_vectors(data.split("train"),
                                                             data.num_entities),
        }

    # ------------------------------------------------------------------
    def _entity_similarity_data(self, transformer: RDFGraphTransformer,
                                graph: Graph) -> Tuple[TriplesData, TransformReport]:
        """Pick the most frequent predicate as the pseudo link-prediction target
        (the first one seen on a tie)."""
        decode = graph.decode_id
        counts: Dict[int, int] = {}
        for _, p, o in graph.triples_ids():
            if not isinstance(decode(o), Literal):
                counts[p] = counts.get(p, 0) + 1
        if not counts:
            raise TrainingError("graph has no structural triples for similarity training")
        target_predicate = decode(max(counts, key=counts.__getitem__))
        return transformer.to_link_prediction_data(graph, target_predicate)
