"""The GML methods, and the optimal choice among them under a task budget
(paper §IV-A, Fig 6 "Optimal GML Method Selection").

:data:`GML_METHODS` is the one statement of how each method trains: its
family, the tasks it serves, its accuracy prior, the model it builds and the
plan its trainer runs (epochs, batch or sub-KG size, batches per epoch,
negatives, learning rate), derived from the
:class:`~repro.kgnet.gmlaas.training_manager.TrainingManagerConfig` it trains
with.

:class:`MethodCostEstimator` prices a method by running it: it builds the
trainer the training manager would train with and runs that trainer's first
epoch into the run's own memory ledger and clock.  The memory price is the
epoch's ledger peak; the time price is the epoch's wall clock times the
plan's epochs, the clock the trainer checks ``max_time_seconds`` against.
A full-batch or KGE epoch books what every later epoch books; a sampled
method (GraphSAINT, ShaDow, MorsE) draws new batches each epoch, so a later
draw can book a little more than the first.  The chosen method's trainer
carries on from its second epoch, so selection adds no work to the run it
picks.  With a handful of candidates the paper's small integer program is
solved exactly by enumeration:

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
    from repro.gml.train.trainer import _BaseTrainer
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


class _Family(NamedTuple):
    """How the methods of one family train: the plan and the trainer."""

    plan: Callable[..., TrainingPlan]
    trainer: Callable[..., object]


_FAMILIES: Dict[str, _Family] = {
    "full_batch": _Family(_full_batch_plan, _full_batch_trainer),
    "graphsaint": _Family(_graphsaint_plan, _sampling_trainer(GraphSAINTNodeSampler)),
    "shadow": _Family(_shadow_plan, _sampling_trainer(ShadowKHopSampler)),
    "kge": _Family(_kge_plan, _kge_trainer),
    "morse": _Family(_morse_plan, _morse_trainer),
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
    #: A key of ``_FAMILIES``: the plan the method runs and its trainer.
    family: str
    tasks: Tuple[str, ...]
    #: Prior on relative accuracy (it breaks ties when the budget allows
    #: several methods); roughly follows the paper's Figs 13-15.
    accuracy_prior: float
    #: ``model(config, data)`` builds the untrained model.
    model: Callable

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
    GMLMethod("gcn", "full_batch", _NODES, 0.72, _gcn),
    GMLMethod("gat", "full_batch", _NODES, 0.75, _gat),
    GMLMethod("graph_saint", "graphsaint", _NODES, 0.82, _rgcn),
    GMLMethod("shadow_saint", "shadow", _NODES, 0.85, _rgcn),
    GMLMethod("morse", "morse", (TaskType.LINK_PREDICTION,), 0.80, _morse),
    GMLMethod("complex", "kge", _LINKS, 0.70, _transductive(ComplEx)),
    GMLMethod("transe", "kge", _LINKS, 0.60, _transductive(TransE)),
    GMLMethod("distmult", "kge", _LINKS, 0.65, _transductive(DistMult)),
    GMLMethod("rotate", "kge", _LINKS, 0.68, _transductive(RotatE)),
)}


@dataclass
class CostEstimate:
    """What one method's first epoch on a dataset booked, and its plan."""

    method: str
    #: The first epoch's ledger peak.
    memory_bytes: float
    #: The first epoch's wall clock times the plan's epochs.
    time_seconds: float
    accuracy_prior: float
    #: The plan's epochs, batch size and batches per epoch.
    details: Dict[str, float]
    #: The trainer that ran the first epoch, ready to run the rest; the
    #: selector keeps only the chosen method's.
    trainer: Optional[_BaseTrainer]


class MethodCostEstimator:
    """Prices a method by running the first epoch of the trainer that trains
    it, at the config it trains with, on a dataset."""

    def __init__(self, config: TrainingManagerConfig) -> None:
        self.config = config

    def estimate(self, method: str, data: Union[GraphData, TriplesData],
                 budget: Optional[TaskBudget] = None) -> CostEstimate:
        """Build ``method``'s trainer under ``budget`` and run its first epoch."""
        entry = GML_METHODS.get(method)
        if entry is None:
            raise ModelSelectionError(f"unknown GML method {method!r}")
        plan = entry.plan(self.config, data)
        trainer = entry.trainer(self.config, data, budget or TaskBudget())
        if not trainer.finished:
            trainer.run_epoch()
        usage = trainer.monitor.usage
        return CostEstimate(
            entry.name, float(usage.peak_memory_bytes),
            usage.elapsed_seconds * plan.epochs, entry.accuracy_prior,
            {"epochs": float(plan.epochs), "batch_size": float(plan.batch_size),
             "batches_per_epoch": float(plan.batches_per_epoch)},
            trainer)


@dataclass
class MethodSelection:
    """The chosen method plus the full candidate ranking (for reporting)."""

    method: str
    estimate: CostEstimate
    within_budget: bool
    objective: str
    candidates: List[CostEstimate] = field(default_factory=list)


#: Per priority, the key an estimate ranks by (lower is better): the least
#: time, the least memory, or the highest accuracy prior (ties to the less
#: time, then the less memory).
_OBJECTIVES: Dict[str, Callable[[CostEstimate], tuple]] = {
    "Time": lambda e: (e.time_seconds, -e.accuracy_prior),
    "Memory": lambda e: (e.memory_bytes, -e.accuracy_prior),
    "ModelScore": lambda e: (-e.accuracy_prior, e.time_seconds, e.memory_bytes),
}


def _least_memory(estimate: CostEstimate) -> tuple:
    return estimate.memory_bytes, estimate.time_seconds


class MethodSelector:
    """Chooses the near-optimal GML method for a task under a budget, pricing
    each candidate by the first epoch of the trainer it would train with."""

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

        # One pass in candidate order keeps the best feasible estimate and
        # the least-memory fallback so far (ties keep the earlier one, as
        # ``min`` does); a beaten one's trainer goes at once, so at most two
        # trainers live beside the one being priced.
        objective = budget.priority
        rank = _OBJECTIVES[objective]
        estimates: List[CostEstimate] = []
        best = fallback = None
        for method in methods:
            estimate = self.estimator.estimate(method, data, budget)
            estimates.append(estimate)
            kept = [best, fallback]
            if budget.allows_memory(estimate.memory_bytes) and \
                    budget.allows_time(estimate.time_seconds) and \
                    (best is None or rank(estimate) < rank(best)):
                best = estimate
            if fallback is None or _least_memory(estimate) < _least_memory(fallback):
                fallback = estimate
            for loser in kept + [estimate]:
                if loser is not None and loser is not best and loser is not fallback:
                    loser.trainer = None
        chosen, within_budget = (best, True) if best is not None else (fallback, False)
        if fallback is not chosen:
            # Fall back to the least memory-hungry candidate only when none
            # fits; its trainer still checks the budget between epochs.
            fallback.trainer = None
        return MethodSelection(method=chosen.method, estimate=chosen,
                               within_budget=within_budget, objective=objective,
                               candidates=sorted(estimates,
                                                 key=lambda e: -e.accuracy_prior))
