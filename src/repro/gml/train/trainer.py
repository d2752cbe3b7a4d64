"""Training loops for the supported GML methods.

Three trainers cover the paper's method families:

* :class:`FullBatchNodeClassificationTrainer` — RGCN / GCN / GAT trained on
  the whole (sub)graph every epoch ("full propagation" in Fig 5),
* :class:`SamplingNodeClassificationTrainer` — GraphSAINT / ShaDow-SAINT
  mini-batch training over sampled subgraphs,
* :class:`KGETrainer` and :class:`MorsETrainer` — link-prediction training
  with negative sampling (transductive KGE and inductive MorsE).  Both are
  evaluated by one filtered ranking
  (:func:`~repro.gml.kge.base.filtered_tail_ranks`), which scores with the
  model's own ``tail_scores`` — the entry GMLaaS inference ranks with too.

Every trainer measures elapsed time and peak memory with
:class:`~repro.gml.train.budget.ResourceMonitor`, because those numbers are
what the paper's evaluation (Figs 13-15) reports: the trainer owns its run's
monitor, hands it down to every step, and each step books the bytes it held
in its ledger.  The trainer checks its :class:`~repro.gml.train.budget.TaskBudget`
against that ledger after every epoch: a run that exceeds the budget stops
early.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import BudgetExceededError, TrainingError
from repro.gml.autograd import Tensor, cross_entropy
from repro.gml.data import GraphData, TriplesData
from repro.gml.kge.base import (
    KGEModel,
    filtered_tail_ranks,
    known_tails,
    ranking_metrics,
)
from repro.gml.kge.morse import MorsE
from repro.gml.nn.models import NodeClassifier
from repro.gml.nn.optim import Adam, Optimizer, clip_grad_norm
from repro.gml.sampling.base import SubgraphSampler
from repro.gml.sampling.negative import (
    EdgeSubKGSampler,
    NegativeSampler,
    TripleBatchSampler,
)
from repro.gml.train.budget import ResourceMonitor, ResourceUsage, TaskBudget
from repro.gml.train.metrics import accuracy, classification_report

__all__ = [
    "TrainingResult",
    "FullBatchNodeClassificationTrainer",
    "SamplingNodeClassificationTrainer",
    "KGETrainer",
    "MorsETrainer",
]


@dataclass
class TrainingResult:
    """Everything the platform records about one training run."""

    method: str
    task_type: str
    metrics: Dict[str, float]
    usage: ResourceUsage
    num_epochs: int
    history: List[Dict[str, float]] = field(default_factory=list)
    inference_seconds: float = 0.0
    model: object = None
    stopped_early: bool = False


class _BaseTrainer:
    """The training loop every method shares: epochs, history, budget, report.

    A run is the trainer's own: its monitor, its history, the epochs it has
    run and whether the budget stopped it live on the trainer, so
    :meth:`run_epoch` can run the first epoch alone (the method selector
    prices a method that way) and :meth:`train` carries on from there.
    """

    task_type = "node_classification"
    #: Every ``history_every``-th epoch (and the last) gets a history entry.
    history_every = 5

    def __init__(self, model, data, epochs: int, method_name: str,
                 budget: Optional[TaskBudget]) -> None:
        self.model = model
        self.data = data
        self.epochs = epochs
        self.method_name = method_name
        self.budget = budget or TaskBudget()
        self.monitor = ResourceMonitor(self.budget)
        self.history: List[Dict[str, float]] = []
        self.epochs_run = 0
        self.stopped_early = False

    @property
    def finished(self) -> bool:
        return self.stopped_early or self.epochs_run >= self.epochs

    def run_epoch(self) -> None:
        """Run the next epoch on the run's clock, book its steps in the
        run's ledger, record its history entry and check the budget."""
        epoch = self.epochs_run
        with self.monitor:
            loss = self._train_epoch(epoch, self.monitor)
            if epoch % self.history_every == 0 or epoch == self.epochs - 1:
                self.history.append({"epoch": epoch, "loss": loss,
                                     **self._epoch_metrics()})
            self.epochs_run += 1
            try:
                self.monitor.check()
            except BudgetExceededError:
                self.stopped_early = True

    def train(self) -> TrainingResult:
        """Run the epochs left, then test the trained model."""
        while not self.finished:
            self.run_epoch()
        metrics, inference_seconds = self._final_metrics()
        return TrainingResult(
            method=self.method_name, task_type=self.task_type,
            metrics=metrics, usage=self.monitor.usage, num_epochs=self.epochs,
            history=self.history, inference_seconds=inference_seconds,
            model=self.model, stopped_early=self.stopped_early)

    def _train_epoch(self, epoch: int, ledger: ResourceMonitor) -> float:
        """Run one epoch of optimisation, booking each step in ``ledger``;
        returns its mean loss."""
        raise NotImplementedError

    def _epoch_metrics(self) -> Dict[str, float]:
        """Validation numbers recorded beside the loss in the history."""
        return {}

    def _final_metrics(self) -> Tuple[Dict[str, float], float]:
        """Test metrics of the trained model and the seconds inference took."""
        raise NotImplementedError

    def _book(self, ledger: ResourceMonitor, tape_bytes: int, batch_bytes: int) -> None:
        """Book one step: the weights four times (the parameters, their
        gradients and Adam's two moments), the batch and the tape."""
        weights = sum(parameter.data.nbytes for parameter in self.optimizer.parameters)
        ledger.book(4 * weights + batch_bytes + tape_bytes)


class _NodeClassificationTrainer(_BaseTrainer):
    """Optimizer set-up and evaluation of a :class:`NodeClassifier`."""

    #: Largest global gradient norm a step applies.
    grad_clip = 5.0
    #: The optimizer's L2 penalty on the parameters.
    weight_decay = 5e-4

    def __init__(self, model: NodeClassifier, data: GraphData, epochs: int,
                 learning_rate: float, budget: Optional[TaskBudget],
                 method_name: str) -> None:
        super().__init__(model, data, epochs, method_name, budget)
        self.optimizer: Optimizer = Adam(model.parameters(), lr=learning_rate,
                                         weight_decay=self.weight_decay)

    def _step(self, ledger: ResourceMonitor, data: GraphData, nodes: np.ndarray,
              weight: Optional[np.ndarray] = None) -> float:
        """One optimisation step on the labelled ``nodes`` of ``data``; the
        batch's features are a leaf of the tape, so the tape counts them."""
        self.optimizer.zero_grad()
        logits = self.model.forward(data)
        loss = cross_entropy(logits[nodes], data.labels[nodes], weight=weight)
        self._book(ledger, loss.backward(), 0)
        clip_grad_norm(self.optimizer.parameters, self.grad_clip)
        self.optimizer.step()
        return float(loss.item())

    def _epoch_metrics(self) -> Dict[str, float]:
        return {"val_accuracy": self._evaluate_mask(self.data.val_mask)}

    def _evaluate_mask(self, mask: np.ndarray) -> float:
        nodes = np.flatnonzero(mask)
        if nodes.size == 0:
            return 0.0
        self.model.eval()
        predictions = self.model.predict(self.data, nodes)
        return accuracy(self.data.labels[nodes], predictions)

    def _final_metrics(self) -> Tuple[Dict[str, float], float]:
        self.model.eval()
        test_nodes = np.flatnonzero(self.data.test_mask)
        if test_nodes.size == 0:
            test_nodes = self.data.labeled_nodes()
        started = time.perf_counter()
        predictions = self.model.predict(self.data, test_nodes)
        inference_seconds = time.perf_counter() - started
        report = classification_report(self.data.labels[test_nodes], predictions,
                                       num_classes=self.data.num_classes)
        report["val_accuracy"] = self._evaluate_mask(self.data.val_mask)
        return report, inference_seconds


class FullBatchNodeClassificationTrainer(_NodeClassificationTrainer):
    """Full-graph training of a :class:`NodeClassifier` (RGCN / GCN / GAT)."""

    def __init__(self, model: NodeClassifier, data: GraphData, epochs: int,
                 learning_rate: float, budget: Optional[TaskBudget] = None,
                 method_name: str = "rgcn") -> None:
        super().__init__(model, data, epochs, learning_rate, budget, method_name)
        if data.labeled_nodes().size == 0:
            raise TrainingError("dataset has no labelled nodes")
        self._train_nodes = np.flatnonzero(data.train_mask)

    def _train_epoch(self, epoch: int, ledger: ResourceMonitor) -> float:
        self.model.train()
        return self._step(ledger, self.data, self._train_nodes)


class SamplingNodeClassificationTrainer(_NodeClassificationTrainer):
    """Mini-batch training over sampled subgraphs (GraphSAINT / ShaDow)."""

    def __init__(self, model: NodeClassifier, data: GraphData,
                 sampler: SubgraphSampler, epochs: int, learning_rate: float,
                 budget: Optional[TaskBudget] = None,
                 method_name: str = "graph_saint") -> None:
        super().__init__(model, data, epochs, learning_rate, budget, method_name)
        self.sampler = sampler

    def _train_epoch(self, epoch: int, ledger: ResourceMonitor) -> float:
        self.model.train()
        losses = []
        for batch in self.sampler:
            sub = batch.data
            # Only train on labelled *training* nodes inside the batch;
            # for ShaDow batches restrict further to the root nodes.
            candidates = np.flatnonzero(sub.train_mask & (sub.labels >= 0))
            if batch.root_nodes is not None:
                candidates = candidates[np.isin(candidates, batch.root_nodes)]
            if candidates.size == 0:
                continue
            weight = None
            if batch.node_weight is not None:
                weight = batch.node_weight[candidates]
            losses.append(self._step(ledger, sub, candidates, weight))
        return sum(losses) / max(1, len(losses))


class _LinkPredictionTrainer(_BaseTrainer):
    """Optimizer set-up and the filtered test ranking of a link predictor."""

    task_type = "link_prediction"

    def __init__(self, model, data: TriplesData, epochs: int, learning_rate: float,
                 budget: Optional[TaskBudget], method_name: str) -> None:
        super().__init__(model, data, epochs, method_name, budget)
        self.optimizer: Optimizer = Adam(model.parameters(), lr=learning_rate)

    def _step(self, ledger: ResourceMonitor, loss: Tensor, batch_bytes: int) -> float:
        """One optimisation step down the gradient of ``loss``, which a
        batch of ``batch_bytes`` built."""
        self.optimizer.zero_grad()
        self._book(ledger, loss.backward(), batch_bytes)
        self.optimizer.step()
        return float(loss.item())

    def _final_metrics(self) -> Tuple[Dict[str, float], float]:
        entity_vectors = self.model.entity_vectors(self.data.split("train"),
                                                   self.data.num_entities)
        started = time.perf_counter()
        ranks = filtered_tail_ranks(self.model, entity_vectors,
                                    self.data.split("test")[:200],
                                    known_tails(self.data.triples))
        return ranking_metrics(ranks), time.perf_counter() - started


class KGETrainer(_LinkPredictionTrainer):
    """Negative-sampling training of a transductive KGE model."""

    history_every = 10

    def __init__(self, model: KGEModel, data: TriplesData, epochs: int,
                 batch_size: int, num_negatives: int, learning_rate: float,
                 budget: Optional[TaskBudget] = None,
                 method_name: str = "kge", seed: int = 0) -> None:
        super().__init__(model, data, epochs, learning_rate, budget, method_name)
        self.batch_sampler = TripleBatchSampler(
            data, batch_size=batch_size, num_negatives=num_negatives, seed=seed)

    def _train_epoch(self, epoch: int, ledger: ResourceMonitor) -> float:
        losses = []
        for positives, negatives in self.batch_sampler:
            losses.append(self._step(ledger, self.model.loss(positives, negatives),
                                     positives.nbytes + negatives.nbytes))
        return sum(losses) / max(1, len(losses))


class MorsETrainer(_LinkPredictionTrainer):
    """Meta-training of the inductive MorsE model over sampled sub-KGs."""

    def __init__(self, model: MorsE, data: TriplesData, epochs: int,
                 triples_per_subkg: int, subkgs_per_epoch: int,
                 num_negatives: int, learning_rate: float,
                 budget: Optional[TaskBudget] = None,
                 method_name: str = "morse", seed: int = 0) -> None:
        super().__init__(model, data, epochs, learning_rate, budget, method_name)
        self.subkg_sampler = EdgeSubKGSampler(
            data, triples_per_subkg=triples_per_subkg,
            num_subkgs=subkgs_per_epoch, seed=seed)
        self.negative_sampler_seed = seed
        self.num_negatives = num_negatives
        #: The scoring arrays of the run, reused by every step.
        self._step_buffers: Dict[str, Dict[str, np.ndarray]] = {}

    def _train_epoch(self, epoch: int, ledger: ResourceMonitor) -> float:
        losses = []
        for local_triples, _, num_local in self.subkg_sampler:
            negative_sampler = NegativeSampler(
                num_local, num_negatives=self.num_negatives,
                seed=self.negative_sampler_seed + epoch)
            negatives = negative_sampler.corrupt(local_triples)
            entity_embeddings = self.model.compose_entity_embeddings(
                local_triples, num_local)
            loss = self.model.loss(entity_embeddings, local_triples, negatives,
                                   self._step_buffers)
            buffer_bytes = sum(array.nbytes for site in self._step_buffers.values()
                               for array in site.values())
            losses.append(self._step(ledger, loss, local_triples.nbytes
                                     + negatives.nbytes + buffer_bytes))
        return sum(losses) / max(1, len(losses))
