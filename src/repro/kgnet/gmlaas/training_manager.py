"""The GML Training Manager: the automated pipeline of paper Fig 6.

Given a (task-specific) RDF subgraph, a task description and a budget, the
manager runs the end-to-end pipeline:

1. **Dataset transformation** — RDF triples to sparse matrices
   (:class:`~repro.gml.transform.RDFGraphTransformer`), with literal /
   label-edge removal and the train/valid/test split.
2. **Optimal method selection** — price every applicable method by running
   the first epoch of its trainer at this manager's config, and choose one
   under the task budget
   (:class:`~repro.kgnet.gmlaas.method_selector.MethodSelector`).  The
   chosen method's estimate is the one the TrainGML report carries.
3. **Training** — the chosen method's trainer, built from its entry in
   :data:`~repro.kgnet.gmlaas.method_selector.GML_METHODS` (full-batch,
   GraphSAINT/ShaDow mini-batch, KGE or MorsE), carries on from its second
   epoch, tracking time and memory; it checks the budget between epochs and
   stops a run that exceeds it.
4. **Artefact preparation** — build the task's artefact
   (:mod:`~repro.kgnet.gmlaas.model_store`), exactly what inference reads.

One table, ``_TASKS``, says per task how the KG becomes training data and
which artefact the trained model becomes.

Building a manager loads no model: the transformer, the method selector and
every model and trainer module (and scipy with them) are imported by the
first :meth:`GMLTrainingManager.train` or :attr:`GMLTrainingManager.selector`
read, so a server that never trains never loads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.gml.tasks import TaskSpec, TaskType
from repro.gml.train.budget import TaskBudget
from repro.kgnet.gmlaas.model_store import (
    Artefact,
    LinkArtefact,
    NodeClassArtefact,
    SimilarityArtefact,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal

if TYPE_CHECKING:
    from repro.gml.data import GraphData, TriplesData
    from repro.gml.train.trainer import TrainingResult
    from repro.gml.transform import RDFGraphTransformer, TransformReport
    from repro.kgnet.gmlaas.method_selector import MethodSelection, MethodSelector

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


def _node_class_artefact(task: TaskSpec, data: GraphData, model) -> NodeClassArtefact:
    target_type = task.target_node_type.value if task.target_node_type else None
    if data.node_types is not None and target_type in data.node_type_names:
        type_id = data.node_type_names.index(target_type)
        target_nodes = np.flatnonzero(data.node_types == type_id)
    else:
        target_nodes = data.labeled_nodes()
    predictions = model.predict(data, target_nodes)
    return NodeClassArtefact(prediction_map={
        data.node_names[int(node)]: data.class_names[int(label)]
        for node, label in zip(target_nodes, predictions)
        if data.node_names and int(label) < len(data.class_names)
    })


def _similarity_artefact(task: TaskSpec, data: TriplesData,
                         model) -> SimilarityArtefact:
    return SimilarityArtefact(
        entity_names=list(data.entity_names),
        entity_embeddings=model.entity_vectors(data.split("train"), data.num_entities))


def _link_artefact(task: TaskSpec, data: TriplesData, model) -> LinkArtefact:
    target_relation = data.target_relation if data.target_relation is not None else 0
    return LinkArtefact(
        entity_names=list(data.entity_names),
        entity_embeddings=model.entity_vectors(data.split("train"), data.num_entities),
        # Candidate tails: entities observed as objects of the target relation.
        candidate_tails=np.unique(
            data.triples[data.triples[:, 1] == target_relation, 2]),
        target_relation=int(target_relation),
        scorer=model)


@dataclass
class TrainingOutcome:
    """Everything the platform learns from one training run."""

    result: TrainingResult
    selection: MethodSelection
    transform_report: TransformReport
    artefact: Artefact


class GMLTrainingManager:
    """Automates GML training for one task on one (sub)graph."""

    def __init__(self, config: Optional[TrainingManagerConfig] = None) -> None:
        self.config = config or TrainingManagerConfig()

    @cached_property
    def selector(self) -> MethodSelector:
        """The method selector at this manager's config, built on first use."""
        from repro.kgnet.gmlaas.method_selector import MethodSelector
        return MethodSelector(self.config)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def train(self, graph: Graph, task: TaskSpec,
              budget: Optional[TaskBudget] = None,
              method: Optional[str] = None) -> TrainingOutcome:
        """Run the full pipeline; returns the training outcome."""
        from repro.gml.transform import RDFGraphTransformer

        budget = budget or TaskBudget()
        transformer = RDFGraphTransformer(
            feature_dim=self.config.feature_dim,
            split_strategy=self.config.split_strategy,
            seed=self.config.seed)

        transform, build_artefact = _TASKS[task.task_type]
        data, report = transform(transformer, graph, task)

        selection = self.selector.select(
            task.task_type, data, budget=budget,
            candidate_methods=[method] if method is not None else None)

        result = selection.estimate.trainer.train()
        # The run is over: its optimizer state and step buffers go before
        # the artefact is built.
        selection.estimate.trainer = None
        return TrainingOutcome(result=result, selection=selection,
                               transform_report=report,
                               artefact=build_artefact(task, data, result.model))

    # ------------------------------------------------------------------
    @staticmethod
    def _entity_similarity_data(transformer: RDFGraphTransformer,
                                graph: Graph) -> Tuple[TriplesData, TransformReport]:
        """Entity similarity trains a KGE model over the whole subgraph;
        there is no held-out edge set, so it reuses the LP transformation
        with the most frequent predicate as a pseudo target (the first one
        seen on a tie)."""
        decode = graph.decode_id
        counts: Dict[int, int] = {}
        for _, p, o in graph.triples_ids():
            if not isinstance(decode(o), Literal):
                counts[p] = counts.get(p, 0) + 1
        if not counts:
            raise TrainingError("graph has no structural triples for similarity training")
        target_predicate = decode(max(counts, key=counts.__getitem__))
        return transformer.to_link_prediction_data(graph, target_predicate)


#: Per task type: ``transform(transformer, graph, task) -> (data, report)``,
#: and ``artefact(task, data, trained model)``, what inference will read.
_TASKS: Dict[str, Tuple[Callable, Callable[..., Artefact]]] = {
    TaskType.NODE_CLASSIFICATION: (
        lambda transformer, graph, task: transformer.to_node_classification_data(
            graph, task.target_node_type, task.label_predicate),
        _node_class_artefact),
    TaskType.LINK_PREDICTION: (
        lambda transformer, graph, task: transformer.to_link_prediction_data(
            graph, task.target_predicate),
        _link_artefact),
    TaskType.ENTITY_SIMILARITY: (
        lambda transformer, graph, task: GMLTrainingManager._entity_similarity_data(
            transformer, graph),
        _similarity_artefact),
}
