"""Unit tests for metrics, budgets and the trainers."""

import gc
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.exceptions import BudgetExceededError, TrainingError
from repro.gml.data import GraphData
from repro.gml.kge import DistMult, MorsE
from repro.gml.kge.base import ranking_metrics
from repro.gml.nn import RGCN
from repro.gml.sampling import GraphSAINTNodeSampler, ShadowKHopSampler
from repro.gml.train.budget import ResourceMonitor, TaskBudget
from repro.gml.train.metrics import (
    accuracy,
    classification_report,
    confusion_matrix,
    f1_score,
)
from repro.gml.train.trainer import (
    FullBatchNodeClassificationTrainer,
    KGETrainer,
    MorsETrainer,
    SamplingNodeClassificationTrainer,
)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)
        assert accuracy([], []) == 0.0

    def test_confusion_matrix(self):
        matrix = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], num_classes=2)
        assert matrix.tolist() == [[1, 1], [0, 2]]

    def test_f1_macro_and_micro(self):
        y_true = [0, 0, 1, 1, 2, 2]
        y_pred = [0, 0, 1, 0, 2, 2]
        assert 0 < f1_score(y_true, y_pred, average="macro") <= 1
        assert f1_score(y_true, y_pred, average="micro") == pytest.approx(5 / 6)

    def test_f1_perfect_and_worst(self):
        assert f1_score([0, 1], [0, 1]) == 1.0
        assert f1_score([0, 0], [1, 1]) == 0.0

    def test_classification_report_keys(self):
        report = classification_report([0, 1], [0, 1])
        assert set(report) == {"accuracy", "f1_macro", "f1_micro"}

    def test_ranking_metrics(self):
        ranks = np.array([1, 5, 20])
        metrics = ranking_metrics(ranks)
        assert metrics["mrr"] == pytest.approx((1 + 0.2 + 0.05) / 3)
        assert metrics["hits@10"] == pytest.approx(2 / 3)
        assert ranking_metrics(np.array([]))["hits@10"] == 0.0


class TestTaskBudget:
    def test_parse_sizes_and_times(self):
        budget = TaskBudget.from_json({"MaxMemory": "50GB", "MaxTime": "1h",
                                       "Priority": "ModelScore"})
        assert budget.max_memory_bytes == 50 * 1024 ** 3
        assert budget.max_time_seconds == 3600
        assert budget.priority == "ModelScore"

    def test_parse_variants(self):
        budget = TaskBudget.from_json({"max_memory": "512 MB", "max time": "30min",
                                       "priority": "Time"})
        assert budget.max_memory_bytes == 512 * 1024 ** 2
        assert budget.max_time_seconds == 1800

    def test_parse_numeric_values(self):
        budget = TaskBudget.from_json({"MaxMemory": 1024, "MaxTime": 60})
        assert budget.max_memory_bytes == 1024
        assert budget.max_time_seconds == 60

    def test_default_budget_is_unconstrained(self):
        budget = TaskBudget()
        assert budget.allows_memory(1e18) and budget.allows_time(1e9)

    def test_unknown_priority_rejected(self):
        with pytest.raises(TrainingError):
            TaskBudget(priority="Everything")

    def test_allows(self):
        budget = TaskBudget(max_memory_bytes=100, max_time_seconds=10)
        assert budget.allows_memory(50) and not budget.allows_memory(200)
        assert budget.allows_time(5) and not budget.allows_time(20)

    def test_as_dict(self):
        assert "priority" in TaskBudget().as_dict()


class TestResourceMonitor:
    def test_measures_time_and_keeps_the_largest_step(self):
        with ResourceMonitor() as monitor:
            for step_bytes in (300, 500, 200):
                monitor.book(step_bytes)
            time.sleep(0.01)
        assert monitor.usage.elapsed_seconds >= 0.01
        assert monitor.usage.peak_memory_bytes == 500

    def test_enforced_time_budget_raises(self):
        budget = TaskBudget(max_time_seconds=0.001)
        with pytest.raises(BudgetExceededError):
            with ResourceMonitor(budget) as monitor:
                time.sleep(0.05)
                monitor.check()

    def test_check_inside_block(self):
        budget = TaskBudget(max_time_seconds=0.001)
        with ResourceMonitor(budget) as monitor:
            time.sleep(0.01)
            with pytest.raises(BudgetExceededError):
                monitor.check()

    def test_memory_budget_is_checked_against_the_ledger(self):
        with ResourceMonitor(TaskBudget(max_memory_bytes=1000)) as monitor:
            monitor.book(1000)
            monitor.check()
            monitor.book(1001)
            with pytest.raises(BudgetExceededError) as raised:
                monitor.check()
        assert raised.value.peak_memory_bytes == 1001


class TestTrainers:
    def test_full_batch_trainer(self, dblp_nc_data):
        data = dblp_nc_data[0]
        model = RGCN(data.feature_dim, 16, data.num_classes, data.num_relations,
                     num_bases=4, seed=0)
        trainer = FullBatchNodeClassificationTrainer(model, data, epochs=6,
                                                     learning_rate=0.05,
                                                     method_name="rgcn")
        result = trainer.train()
        assert result.task_type == "node_classification"
        assert 0.0 <= result.metrics["accuracy"] <= 1.0
        assert result.usage.elapsed_seconds > 0
        assert result.usage.peak_memory_bytes > 0
        assert result.inference_seconds > 0
        assert result.history

    def test_full_batch_trainer_learns_better_than_chance(self, dblp_nc_data):
        data = dblp_nc_data[0]
        model = RGCN(data.feature_dim, 24, data.num_classes, data.num_relations,
                     num_bases=8, seed=0)
        trainer = FullBatchNodeClassificationTrainer(model, data, epochs=30,
                                                     learning_rate=0.03,
                                                     method_name="rgcn")
        result = trainer.train()
        chance = 1.0 / data.num_classes
        assert result.metrics["accuracy"] > chance + 0.1

    def test_sampling_trainer_graphsaint(self, dblp_nc_data):
        data = dblp_nc_data[0]
        model = RGCN(data.feature_dim, 16, data.num_classes, data.num_relations,
                     num_bases=4, seed=0)
        sampler = GraphSAINTNodeSampler(data, batch_size=60, num_batches=2, seed=0)
        trainer = SamplingNodeClassificationTrainer(model, data, sampler, epochs=4,
                                                    learning_rate=0.01,
                                                    method_name="graph_saint")
        result = trainer.train()
        assert result.method == "graph_saint"
        assert 0.0 <= result.metrics["accuracy"] <= 1.0

    def test_sampling_trainer_shadow(self, dblp_nc_data):
        data = dblp_nc_data[0]
        model = RGCN(data.feature_dim, 16, data.num_classes, data.num_relations,
                     num_bases=4, seed=0)
        sampler = ShadowKHopSampler(data, batch_size=16, num_batches=2, depth=2,
                                    neighbors_per_hop=5, seed=0)
        trainer = SamplingNodeClassificationTrainer(model, data, sampler, epochs=4,
                                                    learning_rate=0.01,
                                                    method_name="shadow_saint")
        result = trainer.train()
        assert result.metrics["accuracy"] >= 0.0

    def test_trainer_rejects_unlabelled_data(self, dblp_nc_data):
        data = dblp_nc_data[0]
        unlabelled = GraphData(
            num_nodes=data.num_nodes, edge_index=data.edge_index,
            edge_type=data.edge_type, num_relations=data.num_relations,
            features=data.features, labels=-np.ones(data.num_nodes, dtype=np.int64),
            num_classes=data.num_classes,
            train_mask=np.zeros(data.num_nodes, bool),
            val_mask=np.zeros(data.num_nodes, bool),
            test_mask=np.zeros(data.num_nodes, bool))
        model = RGCN(data.feature_dim, 8, data.num_classes, data.num_relations)
        with pytest.raises(TrainingError):
            FullBatchNodeClassificationTrainer(model, unlabelled, epochs=40,
                                               learning_rate=0.01)

    def test_budget_enforcement_stops_training(self, dblp_nc_data):
        data = dblp_nc_data[0]
        model = RGCN(data.feature_dim, 16, data.num_classes, data.num_relations,
                     num_bases=4, seed=0)
        budget = TaskBudget(max_time_seconds=1e-6)
        trainer = FullBatchNodeClassificationTrainer(
            model, data, epochs=50, learning_rate=0.01, budget=budget,
            method_name="rgcn")
        result = trainer.train()
        assert result.stopped_early

    def test_kge_trainer(self, dblp_lp_data):
        data = dblp_lp_data[0]
        model = DistMult(data.num_entities, data.num_relations, dim=16, seed=0)
        trainer = KGETrainer(model, data, epochs=3, batch_size=256, num_negatives=8,
                             learning_rate=0.05, method_name="distmult", seed=0)
        result = trainer.train()
        assert result.task_type == "link_prediction"
        assert "hits@10" in result.metrics
        assert 0.0 <= result.metrics["mrr"] <= 1.0

    def test_morse_trainer(self, dblp_lp_data):
        data = dblp_lp_data[0]
        model = MorsE(data.num_relations, dim=16, seed=0)
        trainer = MorsETrainer(model, data, epochs=4, triples_per_subkg=300,
                               subkgs_per_epoch=2, num_negatives=8,
                               learning_rate=0.05, seed=0)
        result = trainer.train()
        assert result.method == "morse"
        assert "hits@10" in result.metrics
        assert result.usage.peak_memory_bytes > 0

    def test_morse_beats_random_ranking(self, dblp_lp_data):
        data = dblp_lp_data[0]
        model = MorsE(data.num_relations, dim=24, seed=0)
        trainer = MorsETrainer(model, data, epochs=10, triples_per_subkg=600,
                               subkgs_per_epoch=3, num_negatives=8,
                               learning_rate=0.05, seed=0)
        result = trainer.train()
        random_hits = 10.0 / data.num_entities
        assert result.metrics["hits@10"] > random_hits * 2


def rgcn_for(data):
    return RGCN(data.feature_dim, 16, data.num_classes, data.num_relations,
                num_bases=4, seed=0)


def tiny_trainer(shape, nc_data, lp_data, epochs, **options):
    """T1-T4 of the benchmark of record (and the two other trainers), tiny."""
    if shape == "T1-graph_saint":       # the training manager's sampler shape
        sampler = GraphSAINTNodeSampler(nc_data, batch_size=nc_data.num_nodes // 2,
                                        num_batches=6, seed=0)
        return SamplingNodeClassificationTrainer(
            rgcn_for(nc_data), nc_data, sampler, epochs=epochs, learning_rate=0.01,
            **options)
    if shape == "T2-rgcn-on-subgraph":
        sub = nc_data.subgraph(np.arange(nc_data.num_nodes // 2))[0]
        return FullBatchNodeClassificationTrainer(rgcn_for(sub), sub, epochs=epochs,
                                                  learning_rate=0.01, **options)
    if shape == "T3-morse":
        return MorsETrainer(MorsE(lp_data.num_relations, dim=16, seed=0), lp_data,
                            epochs=epochs, triples_per_subkg=300, subkgs_per_epoch=3,
                            num_negatives=8, learning_rate=0.05, **options)
    if shape == "T4-rgcn-on-full-graph":
        return FullBatchNodeClassificationTrainer(rgcn_for(nc_data), nc_data,
                                                  epochs=epochs, learning_rate=0.01,
                                                  **options)
    if shape == "shadow_saint":
        sampler = ShadowKHopSampler(nc_data, batch_size=16, num_batches=3, seed=0)
        return SamplingNodeClassificationTrainer(
            rgcn_for(nc_data), nc_data, sampler, epochs=epochs, learning_rate=0.01,
            method_name="shadow_saint", **options)
    assert shape == "distmult"
    return KGETrainer(DistMult(lp_data.num_entities, lp_data.num_relations, dim=16,
                               seed=0), lp_data, epochs=epochs, batch_size=512,
                      num_negatives=8, learning_rate=0.05, **options)


BENCHMARK_SHAPES = ["T1-graph_saint", "T2-rgcn-on-subgraph", "T3-morse",
                    "T4-rgcn-on-full-graph"]
ALL_SHAPES = BENCHMARK_SHAPES + ["shadow_saint", "distmult"]


class TestTrainingTape:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_steps_leave_nothing_for_the_collector(self, shape, dblp_nc_data,
                                                   dblp_lp_data):
        """A step's tape dies by reference count: with the collector off, no
        intermediate tensor outlives its step and three steps later
        ``gc.collect()`` has nothing unreachable to find."""
        trainer = tiny_trainer(shape, dblp_nc_data[0], dblp_lp_data[0], epochs=3)
        model = trainer.model
        hook = {"T3-morse": "compose_entity_embeddings",
                "distmult": "score_triples"}.get(shape, "forward")
        original = getattr(model, hook)
        intermediates = []

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            intermediates.append(weakref.ref(out))
            return out

        setattr(model, hook, recording)
        gc.collect()
        gc.disable()
        try:
            trainer.train()
            alive = sum(1 for ref in intermediates if ref() is not None)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert len(intermediates) >= 3
        assert alive == 0
        assert unreachable == 0


#: The ledger's peak over the whole-run peak a trace the test started sees,
#: per benchmark shape (measured 0.47-0.49, 0.78, 0.94 and 0.72): the ledger
#: counts the arrays a step holds, not the temporaries numpy makes inside one
#: op, the masks only a backward closure holds or the validation passes --
#: T1's peak is its validation pass over the whole graph.
LEDGER_OVER_TRACED = {"T1-graph_saint": (0.4, 0.6), "T2-rgcn-on-subgraph": (0.65, 0.9),
                      "T3-morse": (0.9, 1.05), "T4-rgcn-on-full-graph": (0.65, 0.85)}


class TestMemoryLedger:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_every_step_of_every_epoch_is_booked(self, shape, dblp_nc_data, dblp_lp_data,
                                                 monkeypatch):
        booked, steps = [], []
        book = ResourceMonitor.book

        def booking(monitor, step_bytes):
            booked.append(step_bytes)
            book(monitor, step_bytes)

        monkeypatch.setattr(ResourceMonitor, "book", booking)
        trainer = tiny_trainer(shape, dblp_nc_data[0], dblp_lp_data[0], epochs=3)
        step = trainer._step

        def stepping(*args):
            steps.append(args)
            return step(*args)

        trainer._step = stepping
        result = trainer.train()
        assert len(booked) == len(steps) >= 3
        assert result.usage.peak_memory_bytes == max(booked) > 0

    @pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
    def test_ledger_is_within_a_stated_factor_of_the_traced_peak(self, shape, dblp_nc_data,
                                                                 dblp_lp_data):
        """``tracemalloc`` as the oracle: the whole run's traced peak, read
        before the final metrics.  A first, untraced run builds the data's
        adjacency caches, which would otherwise land in whichever traced run
        comes first."""
        trainer = tiny_trainer(shape, dblp_nc_data[0], dblp_lp_data[0], epochs=4)
        trainer.train()
        final_metrics = trainer._final_metrics
        whole_run = []

        def recording():
            whole_run.append(tracemalloc.get_traced_memory()[1])
            return final_metrics()

        trainer._final_metrics = recording
        tracemalloc.start()
        try:
            result = trainer.train()
        finally:
            tracemalloc.stop()
        low, high = LEDGER_OVER_TRACED[shape]
        assert low * whole_run[0] <= result.usage.peak_memory_bytes <= high * whole_run[0]

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_repeated_runs_report_the_same_peak(self, shape, dblp_nc_data, dblp_lp_data):
        peaks = {tiny_trainer(shape, dblp_nc_data[0], dblp_lp_data[0], epochs=3)
                 .train().usage.peak_memory_bytes for _ in range(3)}
        assert len(peaks) == 1

    def test_training_leaves_a_callers_trace_alone(self, dblp_nc_data, dblp_lp_data):
        tracemalloc.start()
        try:
            block = np.ones(1_000_000)              # an 8 MB peak, freed
            del block
            tiny_trainer("T2-rgcn-on-subgraph", dblp_nc_data[0], dblp_lp_data[0],
                         epochs=2).train()
            assert tracemalloc.is_tracing()
            assert tracemalloc.get_traced_memory()[1] >= 8_000_000
        finally:
            tracemalloc.stop()

    def test_memory_budget_blown_in_the_first_epoch_stops_training(
            self, dblp_nc_data, dblp_lp_data, monkeypatch):
        raised = []
        check = ResourceMonitor.check

        def recording(self):
            try:
                check(self)
            except BudgetExceededError as error:
                raised.append(error)
                raise

        monkeypatch.setattr(ResourceMonitor, "check", recording)
        trainer = tiny_trainer("T4-rgcn-on-full-graph", dblp_nc_data[0],
                               dblp_lp_data[0], epochs=10,
                               budget=TaskBudget(max_memory_bytes=64 * 1024))
        result = trainer.train()
        assert result.stopped_early
        assert [entry["epoch"] for entry in result.history] == [0]
        assert len(raised) == 1
        assert raised[0].peak_memory_bytes == result.usage.peak_memory_bytes > 64 * 1024
