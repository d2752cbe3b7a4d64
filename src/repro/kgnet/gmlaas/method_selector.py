"""The GML methods, and the optimal choice among them under a task budget
(paper §IV-A, Fig 6 "Optimal GML Method Selection").

:data:`GML_METHODS` is the one statement of how each method trains: its
family, the tasks it serves, its accuracy prior, the model it builds and the
plan its trainer runs (epochs, batch or sub-KG size, batches per epoch,
negatives, learning rate), derived from the
:class:`~repro.kgnet.gmlaas.training_manager.TrainingManagerConfig` it trains
with.  The training manager builds every model and trainer from the entry,
and :class:`MethodCostEstimator` prices the entry's plan at the same config,
so an estimate describes the run that follows it.

The estimator follows the paper: *"We estimate the required memory for each
method based on the size and the number of generated sparse-matrices, as
well as the training time based on the matrix dimensions and feature
aggregation approach"*.  The numbers rank candidate methods under a budget;
they are not absolute predictions.  With a handful of candidates the
paper's small integer program is solved exactly by enumeration:

* ``Priority = ModelScore``: maximise the expected accuracy prior subject to
  the memory and time budgets,
* ``Priority = Time``: minimise estimated training time subject to the
  memory budget (and any time budget),
* ``Priority = Memory``: minimise estimated memory subject to the time budget.

If no method fits the budget the selector falls back to the cheapest method
so a model can still be produced, and flags the violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from repro.exceptions import ModelSelectionError
from repro.gml.data import GraphData, TriplesData
from repro.gml.kge import ComplEx, DistMult, MorsE, RotatE, TransE
from repro.gml.nn import GAT, GCN, RGCN
from repro.gml.sampling import GraphSAINTNodeSampler, ShadowKHopSampler
from repro.gml.tasks import TaskType
from repro.gml.train.budget import TaskBudget
from repro.gml.train.trainer import (FullBatchNodeClassificationTrainer,
                                     KGETrainer, MorsETrainer,
                                     SamplingNodeClassificationTrainer)

if TYPE_CHECKING:
    from repro.kgnet.gmlaas.training_manager import TrainingManagerConfig

__all__ = ["GML_METHODS", "MethodSelection", "MethodSelector"]

#: Layers of every GNN.
NUM_LAYERS = 2
#: Bases of RGCN's relation weights.
RGCN_BASES = 8
#: Corrupted triples per positive triple, for KGE and MorsE alike.
NUM_NEGATIVES = 8
#: Positive triples in one KGE batch.
KGE_BATCH_SIZE = 512
#: Adam's step for KGE and MorsE; ``TrainingManagerConfig.learning_rate`` is
#: the GNN rate.
LINK_PREDICTION_LEARNING_RATE = 0.05


@dataclass(frozen=True)
class TrainingPlan:
    """What a method's trainer runs on one dataset."""

    epochs: int
    #: What one batch holds: the whole graph (full batch), the nodes a
    #: GraphSAINT batch draws, the roots a ShaDow batch expands, the positive
    #: triples of a KGE batch, or the triples a MorsE sub-KG samples.
    batch_size: int
    batches_per_epoch: int
    learning_rate: float
    #: Corrupted triples per positive triple (0: the method draws none).
    num_negatives: int


def _full_batch_plan(config: TrainingManagerConfig, data: GraphData) -> TrainingPlan:
    return TrainingPlan(config.epochs_full_batch, data.num_nodes, 1,
                        config.learning_rate, 0)


def _graphsaint_plan(config: TrainingManagerConfig, data: GraphData) -> TrainingPlan:
    """256 nodes (at most half the graph, at least 8), six times an epoch."""
    return TrainingPlan(config.epochs_sampling, min(256, max(8, data.num_nodes // 2)),
                        6, config.learning_rate, 0)


def _shadow_plan(config: TrainingManagerConfig, data: GraphData) -> TrainingPlan:
    """64 roots (at most a quarter of the labelled nodes, at least 4), four
    times an epoch."""
    roots = min(64, max(4, int(data.labeled_nodes().size) // 4))
    return TrainingPlan(config.epochs_sampling, roots, 4, config.learning_rate, 0)


def _kge_plan(config: TrainingManagerConfig, data: TriplesData) -> TrainingPlan:
    """Every training triple once an epoch, in batches of ``KGE_BATCH_SIZE``."""
    batches = -(-data.split("train").shape[0] // KGE_BATCH_SIZE)
    return TrainingPlan(config.epochs_kge, KGE_BATCH_SIZE, batches,
                        LINK_PREDICTION_LEARNING_RATE, NUM_NEGATIVES)


def _morse_plan(config: TrainingManagerConfig, data: TriplesData) -> TrainingPlan:
    """Three sub-KGs an epoch, each of half the triples (100 to 2,000), for
    half the KGE epochs (at least 5)."""
    return TrainingPlan(max(5, config.epochs_kge // 2),
                        min(2000, max(100, data.num_triples // 2)), 3,
                        LINK_PREDICTION_LEARNING_RATE, NUM_NEGATIVES)


def _full_batch_trainer(model, data: GraphData, plan: TrainingPlan,
                        budget: TaskBudget, method: str, seed: int):
    return FullBatchNodeClassificationTrainer(
        model, data, epochs=plan.epochs, learning_rate=plan.learning_rate,
        budget=budget, method_name=method)


def _sampling_trainer(sampler_class) -> Callable:
    """The trainer of a mini-batch method that draws with ``sampler_class``."""
    def build(model, data: GraphData, plan: TrainingPlan, budget: TaskBudget,
              method: str, seed: int):
        sampler = sampler_class(data, batch_size=plan.batch_size,
                                num_batches=plan.batches_per_epoch, seed=seed)
        return SamplingNodeClassificationTrainer(
            model, data, sampler, epochs=plan.epochs,
            learning_rate=plan.learning_rate, budget=budget, method_name=method)
    return build


def _kge_trainer(model, data: TriplesData, plan: TrainingPlan,
                 budget: TaskBudget, method: str, seed: int):
    return KGETrainer(model, data, epochs=plan.epochs, batch_size=plan.batch_size,
                      num_negatives=plan.num_negatives,
                      learning_rate=plan.learning_rate, budget=budget,
                      method_name=method, seed=seed)


def _morse_trainer(model, data: TriplesData, plan: TrainingPlan,
                   budget: TaskBudget, method: str, seed: int):
    return MorsETrainer(model, data, epochs=plan.epochs,
                        triples_per_subkg=plan.batch_size,
                        subkgs_per_epoch=plan.batches_per_epoch,
                        num_negatives=plan.num_negatives,
                        learning_rate=plan.learning_rate, budget=budget,
                        method_name=method, seed=seed)


_FLOAT_BYTES = 8
#: Throughput constant translating "floating point operations" into seconds.
#: Calibrated for the pure-numpy engine; only relative values matter.
_SECONDS_PER_FLOP = 5e-9


def _price_nodes(config: TrainingManagerConfig, family: _Family,
                 method: GMLMethod, data: GraphData,
                 plan: TrainingPlan) -> Tuple[float, float, Dict[str, float]]:
    """Node classification: memory, seconds and the working set."""
    nodes, edges = data.num_nodes, max(1, data.num_edges)
    feature_dim = data.feature_dim
    hidden = config.hidden_dim
    relations = data.num_relations if method.relation_aware else 1

    if family.nodes_per_item:
        working_nodes = min(nodes, plan.batch_size * family.nodes_per_item)
        density = edges / max(1, nodes)
        working_edges = max(1, int(working_nodes * density))
        sampling_cost = working_nodes * plan.batches_per_epoch * 1e-6
    else:
        working_nodes = nodes
        working_edges = edges
        sampling_cost = 0.0

    # Memory: features + activations per layer + adjacency structure(s)
    # (one matrix per relation for relation-aware methods) + weights.
    activation_bytes = working_nodes * (feature_dim + hidden * NUM_LAYERS) * _FLOAT_BYTES
    adjacency_bytes = working_edges * 3 * _FLOAT_BYTES * relations
    weight_bytes = (feature_dim * hidden + hidden * hidden * (NUM_LAYERS - 1)
                    + hidden * max(1, data.num_classes)) * _FLOAT_BYTES * max(1, min(relations, 8))
    # Backpropagation roughly doubles the live activations.
    memory = 2.0 * activation_bytes + adjacency_bytes + weight_bytes

    # Time: per batch, aggregation touches every edge once per layer and
    # the dense transforms are nodes x feature x hidden.
    flops_per_batch = (working_edges * hidden * NUM_LAYERS * relations
                       + working_nodes * feature_dim * hidden
                       + working_nodes * hidden * hidden * (NUM_LAYERS - 1))
    seconds = (flops_per_batch * plan.batches_per_epoch * _SECONDS_PER_FLOP
               + sampling_cost) * plan.epochs
    return memory, seconds, {"working_nodes": float(working_nodes),
                             "working_edges": float(working_edges),
                             "relations": float(relations)}


def _price_links(config: TrainingManagerConfig, family: _Family,
                 method: GMLMethod, data: TriplesData,
                 plan: TrainingPlan) -> Tuple[float, float, Dict[str, float]]:
    """Link prediction: memory, seconds and the dataset's sizes.

    A step scores ``batch_size x (1 + negatives)`` triples at the method's
    ``scored_floats`` and ``scored_flops`` per embedding dimension; the
    tables count twice and the entity rows (a table's, or those a sub-KG
    composes) once more.
    """
    entities = data.num_entities
    relations = data.num_relations
    triples = max(1, data.num_triples)
    dim = config.embedding_dim
    working_triples = min(triples, plan.batch_size)

    if family.entity_table:
        table_bytes = (entities + relations) * dim * _FLOAT_BYTES
        working_entities = entities
    else:
        # Relation-level tables only; entity embeddings are composed on
        # the fly from the sampled sub-KG.
        table_bytes = (3 * relations) * dim * _FLOAT_BYTES
        working_entities = min(entities, working_triples * 2)
    scored = working_triples * (1 + plan.num_negatives)
    memory = (2.0 * table_bytes + scored * dim * method.scored_floats * _FLOAT_BYTES
              + working_entities * dim * _FLOAT_BYTES)
    seconds = (scored * dim * method.scored_flops * plan.batches_per_epoch
               * plan.epochs * _SECONDS_PER_FLOP)
    return memory, seconds, {"entities": float(entities),
                             "relations": float(relations),
                             "triples": float(triples)}


class _Family(NamedTuple):
    """How the methods of one family train, and what the estimator prices
    that run by."""

    plan: Callable[..., TrainingPlan]
    trainer: Callable[..., object]
    #: ``_price_nodes`` or ``_price_links``.
    price: Callable[..., Tuple[float, float, Dict[str, float]]]
    #: Graph nodes one batch item brings into the working set: a sampled
    #: node, or a ShaDow root's bounded expansion (``ShadowKHopSampler``'s
    #: depth 2, fanout 10); 0 when every step sees the whole graph.
    nodes_per_item: int = 0
    #: Whether the model keeps a row per entity (MorsE does not).
    entity_table: bool = True


_FAMILIES: Dict[str, _Family] = {
    "full_batch": _Family(_full_batch_plan, _full_batch_trainer, _price_nodes),
    "graphsaint": _Family(_graphsaint_plan, _sampling_trainer(GraphSAINTNodeSampler),
                          _price_nodes, nodes_per_item=1),
    "shadow": _Family(_shadow_plan, _sampling_trainer(ShadowKHopSampler),
                      _price_nodes, nodes_per_item=40),
    "kge": _Family(_kge_plan, _kge_trainer, _price_links),
    "morse": _Family(_morse_plan, _morse_trainer, _price_links, entity_table=False),
}


def _rgcn(config: TrainingManagerConfig, data: GraphData) -> RGCN:
    return RGCN(data.feature_dim, config.hidden_dim, data.num_classes,
                data.num_relations, num_layers=NUM_LAYERS, num_bases=RGCN_BASES,
                seed=config.seed)


def _gcn(config: TrainingManagerConfig, data: GraphData) -> GCN:
    return GCN(data.feature_dim, config.hidden_dim, data.num_classes,
               num_layers=NUM_LAYERS, seed=config.seed)


def _gat(config: TrainingManagerConfig, data: GraphData) -> GAT:
    return GAT(data.feature_dim, config.hidden_dim, data.num_classes,
               num_layers=NUM_LAYERS, seed=config.seed)


def _morse(config: TrainingManagerConfig, data: TriplesData) -> MorsE:
    return MorsE(data.num_relations, dim=config.embedding_dim, seed=config.seed)


def _transductive(model_class) -> Callable:
    """The builder of a ``model_class`` over the dataset's entities."""
    def build(config: TrainingManagerConfig, data: TriplesData):
        return model_class(data.num_entities, data.num_relations,
                           dim=config.embedding_dim, seed=config.seed)
    return build


@dataclass(frozen=True)
class GMLMethod:
    """One GML method: what the selector ranks it by and how it trains."""

    name: str
    #: A key of ``_FAMILIES``: the plan the method runs, its trainer and how
    #: that run is priced.
    family: str
    tasks: Tuple[str, ...]
    #: Prior on relative accuracy (it breaks ties when the budget allows
    #: several methods); roughly follows the paper's Figs 13-15.
    accuracy_prior: float
    #: ``model(config, data)`` builds the untrained model.
    model: Callable
    #: Whether message passing keeps one weight per relation.
    relation_aware: bool = True
    #: Link predictors: what one scored triple costs a training step per
    #: embedding dimension, in floats live through the backward pass and in
    #: floating point operations (MorsE's entity composition included).
    #: Fitted to the peak the run's memory ledger books and to the epoch
    #: time of each method on DBLP author-affiliation (scale 0.25 seed 3,
    #: 1.0 seed 7 and 0.5 seed 11, dimension 16 to 64): the floats are the
    #: median of the nine exact fits and put every estimate within 3 % of
    #: its ledger peak; the operations are the median of noisier timings.
    scored_floats: float = 0.0
    scored_flops: float = 0.0

    def plan(self, config: TrainingManagerConfig,
             data: Union[GraphData, TriplesData]) -> TrainingPlan:
        return _FAMILIES[self.family].plan(config, data)

    def trainer(self, config: TrainingManagerConfig,
                data: Union[GraphData, TriplesData], budget: TaskBudget):
        """The model, untrained, in the trainer that runs this method's plan."""
        return _FAMILIES[self.family].trainer(
            self.model(config, data), data, self.plan(config, data), budget,
            self.name, config.seed)


_NODES = (TaskType.NODE_CLASSIFICATION,)
_LINKS = (TaskType.LINK_PREDICTION, TaskType.ENTITY_SIMILARITY)

GML_METHODS: Dict[str, GMLMethod] = {method.name: method for method in (
    GMLMethod("rgcn", "full_batch", _NODES, 0.80, _rgcn),
    GMLMethod("gcn", "full_batch", _NODES, 0.72, _gcn, relation_aware=False),
    GMLMethod("gat", "full_batch", _NODES, 0.75, _gat, relation_aware=False),
    GMLMethod("graph_saint", "graphsaint", _NODES, 0.82, _rgcn),
    GMLMethod("shadow_saint", "shadow", _NODES, 0.85, _rgcn),
    GMLMethod("morse", "morse", (TaskType.LINK_PREDICTION,), 0.80, _morse,
              scored_floats=5.6, scored_flops=4.5),
    GMLMethod("complex", "kge", _LINKS, 0.70, _transductive(ComplEx),
              scored_floats=9.5, scored_flops=15.0),
    GMLMethod("transe", "kge", _LINKS, 0.60, _transductive(TransE),
              scored_floats=12.0, scored_flops=8.0),
    GMLMethod("distmult", "kge", _LINKS, 0.65, _transductive(DistMult),
              scored_floats=7.9, scored_flops=6.5),
    GMLMethod("rotate", "kge", _LINKS, 0.68, _transductive(RotatE),
              scored_floats=14.2, scored_flops=18.0),
)}


@dataclass
class CostEstimate:
    """Estimated training cost for one (method, dataset) pair."""

    method: str
    memory_bytes: float
    time_seconds: float
    accuracy_prior: float
    details: Dict[str, float] = field(default_factory=dict)


class MethodCostEstimator:
    """Prices a method's training plan, at the config it trains with, on a
    dataset."""

    def __init__(self, config: TrainingManagerConfig) -> None:
        self.config = config

    def estimate(self, method: str,
                 data: Union[GraphData, TriplesData]) -> CostEstimate:
        entry = GML_METHODS.get(method)
        if entry is None:
            raise ModelSelectionError(f"unknown GML method {method!r}")
        family = _FAMILIES[entry.family]
        plan = family.plan(self.config, data)
        memory, seconds, details = family.price(self.config, family, entry, data, plan)
        details.update(epochs=float(plan.epochs), batch_size=float(plan.batch_size),
                       batches_per_epoch=float(plan.batches_per_epoch))
        return CostEstimate(entry.name, float(memory), float(seconds),
                            entry.accuracy_prior, details)


@dataclass
class MethodSelection:
    """The chosen method plus the full candidate ranking (for reporting)."""

    method: str
    estimate: CostEstimate
    within_budget: bool
    objective: str
    candidates: List[CostEstimate] = field(default_factory=list)


class MethodSelector:
    """Chooses the near-optimal GML method for a task under a budget, pricing
    each candidate at the config it would train with."""

    def __init__(self, config: TrainingManagerConfig) -> None:
        self.estimator = MethodCostEstimator(config)

    def applicable_methods(self, task_type: str) -> List[str]:
        return [name for name, method in GML_METHODS.items()
                if task_type in method.tasks]

    def select(self, task_type: str, data: Union[GraphData, TriplesData],
               budget: Optional[TaskBudget] = None,
               candidate_methods: Optional[Sequence[str]] = None) -> MethodSelection:
        """Pick a method for ``task_type`` trained on ``data`` under ``budget``."""
        budget = budget or TaskBudget()
        methods = list(candidate_methods) if candidate_methods else \
            self.applicable_methods(task_type)
        if not methods:
            raise ModelSelectionError(f"no GML method supports task {task_type!r}")
        unknown = [m for m in methods if m not in GML_METHODS]
        if unknown:
            raise ModelSelectionError(f"unknown GML methods: {unknown}")
        misfits = [m for m in methods if task_type not in GML_METHODS[m].tasks]
        if misfits:
            raise ModelSelectionError(
                f"GML methods {misfits} do not support task {task_type!r}")

        estimates = [self.estimator.estimate(method, data)
                     for method in methods]
        feasible = [estimate for estimate in estimates
                    if budget.allows_memory(estimate.memory_bytes)
                    and budget.allows_time(estimate.time_seconds)]

        objective = budget.priority
        if feasible:
            chosen = self._optimise(feasible, objective)
            within_budget = True
        else:
            # Fall back to the least memory-hungry candidate; its trainer
            # still checks the budget between epochs and stops early.
            chosen = min(estimates, key=lambda e: (e.memory_bytes, e.time_seconds))
            within_budget = False
        return MethodSelection(method=chosen.method, estimate=chosen,
                               within_budget=within_budget, objective=objective,
                               candidates=sorted(estimates,
                                                 key=lambda e: -e.accuracy_prior))

    @staticmethod
    def _optimise(candidates: List[CostEstimate], objective: str) -> CostEstimate:
        """Exact solution of the one-of-N selection problem."""
        if objective == "Time":
            return min(candidates, key=lambda e: (e.time_seconds, -e.accuracy_prior))
        if objective == "Memory":
            return min(candidates, key=lambda e: (e.memory_bytes, -e.accuracy_prior))
        # ModelScore: maximise prior accuracy, break ties by time then memory.
        return max(candidates,
                   key=lambda e: (e.accuracy_prior, -e.time_seconds, -e.memory_bytes))
