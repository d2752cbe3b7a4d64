"""Unit tests for metrics, budgets and the trainers."""

import gc
import sys
import threading
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
from repro.gml.train import (
    FullBatchNodeClassificationTrainer,
    KGETrainer,
    MorsETrainer,
    ResourceMonitor,
    SamplingNodeClassificationTrainer,
    TaskBudget,
    accuracy,
    classification_report,
)
from repro.gml.train.metrics import confusion_matrix, f1_score


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
    def test_measures_time_and_memory(self):
        with ResourceMonitor() as monitor:
            _ = np.zeros((200, 200))
            time.sleep(0.01)
        assert monitor.usage.elapsed_seconds >= 0.01
        assert monitor.usage.peak_memory_bytes > 0

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


    def test_exception_inside_block_ends_the_probe(self):
        with pytest.raises(RuntimeError):
            with ResourceMonitor() as monitor:
                _ = np.zeros((200, 200))
                raise RuntimeError("training failed")
        assert not tracemalloc.is_tracing()
        assert monitor.usage.peak_memory_bytes >= 200 * 200 * 8
        # ... and releases the probe lock: another thread can probe.
        other = threading.Thread(target=lambda: ResourceMonitor().__enter__().end_probe())
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()

    def test_end_probe_freezes_the_peak(self):
        with ResourceMonitor(TaskBudget(max_memory_bytes=10 ** 6)) as monitor:
            _ = np.zeros(1000)
            monitor.end_probe()
            assert not tracemalloc.is_tracing()
            peak = monitor.usage.peak_memory_bytes
            assert peak >= 8000
            _ = np.zeros((1000, 1000))          # 8 MB the probe no longer sees
            monitor.check()
        assert monitor.usage.peak_memory_bytes == peak

    def test_foreign_trace_is_left_running(self):
        tracemalloc.start()
        try:
            with ResourceMonitor() as monitor:
                _ = np.zeros((200, 200))
            assert tracemalloc.is_tracing()
            assert monitor.usage.peak_memory_bytes > 0
        finally:
            tracemalloc.stop()

    def test_nested_monitor_reports_the_outer_probe(self):
        """A monitor inside a probe of its own thread neither waits for the
        lock nor resets the peak under the outer monitor."""
        with ResourceMonitor() as outer:
            _ = np.zeros((400, 400))
            del _
            with ResourceMonitor() as inner:
                _ = np.zeros(1000)
            assert tracemalloc.is_tracing()         # the outer probe goes on
            assert inner.usage.peak_memory_bytes >= 400 * 400 * 8
        assert outer.usage.peak_memory_bytes >= 400 * 400 * 8
        assert not tracemalloc.is_tracing()
        with ResourceMonitor() as again:            # the lock was released once
            _ = np.zeros(1000)
        assert 8000 <= again.usage.peak_memory_bytes < 400 * 400 * 8

    def test_probes_of_two_threads_take_turns(self):
        """The first monitor used to stop the trace under the second, which
        then reported 0 bytes: the probe lock makes them take turns."""
        short_inside, long_inside = threading.Event(), threading.Event()
        peaks = {}

        def short_run():
            with ResourceMonitor() as monitor:
                _ = np.zeros((300, 300))
                short_inside.set()
                long_inside.wait(timeout=0.3)   # times out: the other probe waits
            peaks["short"] = monitor.usage.peak_memory_bytes

        def long_run():
            short_inside.wait(timeout=10)
            with ResourceMonitor() as monitor:
                long_inside.set()
                _ = np.zeros((300, 300))
                time.sleep(0.05)
            peaks["long"] = monitor.usage.peak_memory_bytes

        threads = [threading.Thread(target=short_run), threading.Thread(target=long_run)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert peaks["short"] >= 300 * 300 * 8 and peaks["long"] >= 300 * 300 * 8
        assert not tracemalloc.is_tracing()

    def test_many_threads_never_report_zero(self):
        peaks = []

        def run():
            for _ in range(20):
                with ResourceMonitor() as monitor:
                    _ = np.zeros(4096)
                peaks.append(monitor.usage.peak_memory_bytes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(peaks) == 160 and min(peaks) >= 4096 * 8
        assert not tracemalloc.is_tracing()


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


class TestMemoryProbe:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_traces_the_first_epoch_only(self, shape, dblp_nc_data, dblp_lp_data):
        trainer = tiny_trainer(shape, dblp_nc_data[0], dblp_lp_data[0], epochs=4)
        train_epoch = trainer._train_epoch
        tracing = []

        def recording(epoch):
            tracing.append(tracemalloc.is_tracing())
            return train_epoch(epoch)

        trainer._train_epoch = recording
        result = trainer.train()
        assert tracing == [True, False, False, False]
        assert not tracemalloc.is_tracing()
        assert result.usage.peak_memory_bytes > 0

    @pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
    def test_first_epoch_peak_stands_for_the_whole_run(self, shape, dblp_nc_data,
                                                       dblp_lp_data):
        """With a trace the test started, the monitor leaves tracing on, so the
        whole run's traced peak can be read beside the probe's."""
        tolerance = 0.15 if shape == "T1-graph_saint" else 0.10
        trainer = tiny_trainer(shape, dblp_nc_data[0], dblp_lp_data[0], epochs=8)
        final_metrics = trainer._final_metrics
        whole_run = []

        def recording():
            whole_run.append(tracemalloc.get_traced_memory()[1])
            return final_metrics()

        trainer._final_metrics = recording
        tracemalloc.start()
        try:
            result = trainer.train()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        reported = result.usage.peak_memory_bytes
        assert (1.0 - tolerance) * whole_run[0] <= reported <= whole_run[0]

    def test_repeated_runs_report_the_same_peak(self, dblp_nc_data, dblp_lp_data):
        peaks = [tiny_trainer("T3-morse", dblp_nc_data[0], dblp_lp_data[0], epochs=3)
                 .train().usage.peak_memory_bytes for _ in range(3)]
        assert max(peaks) <= 1.02 * min(peaks)

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
        assert not tracemalloc.is_tracing()
