"""Ablation E7 — automatic GML method selection under a task budget.

Paper §IV-A: the GML optimizer estimates memory and training time per method
and picks the near-optimal one within the TrainGML budget.  This benchmark
sweeps budgets and checks the selector's decisions: an unconstrained budget
picks the highest-prior method, tight memory budgets exclude full-batch RGCN,
and a "Time" priority picks the fastest estimated method.  It also measures
the cost of selection itself (it must be negligible next to training).  The
selector is the benchmark platform's own, so it prices the plans that
platform trains.
"""

from __future__ import annotations

import pytest

from harness import bench_training_config, save_report
from repro.datasets import dblp_paper_venue_task
from repro.gml.tasks import TaskType
from repro.gml.train.budget import TaskBudget
from repro.gml.transform import RDFGraphTransformer

_ROWS = []


@pytest.fixture(scope="module")
def nc_data(dblp_graph_bench):
    task = dblp_paper_venue_task()
    transformer = RDFGraphTransformer(feature_dim=bench_training_config().feature_dim)
    data, _ = transformer.to_node_classification_data(
        dblp_graph_bench, task.target_node_type, task.label_predicate)
    return data


BUDGETS = [
    ("unconstrained", TaskBudget()),
    ("time priority", TaskBudget(priority="Time")),
    ("memory priority", TaskBudget(priority="Memory")),
    ("tight memory", None),   # filled in at run time (90% of RGCN's estimate)
    ("infeasible", TaskBudget(max_memory_bytes=1.0)),
]


@pytest.mark.benchmark(group="ablation-method-selection")
@pytest.mark.parametrize("name,budget", BUDGETS, ids=[b[0] for b in BUDGETS])
def test_method_selection_under_budget(benchmark, nc_data, dblp_platform, name,
                                       budget):
    selector = dblp_platform.gmlaas.training_manager.selector
    if name == "tight memory":
        rgcn_estimate = selector.estimator.estimate("rgcn", nc_data)
        budget = TaskBudget(max_memory_bytes=rgcn_estimate.memory_bytes * 0.9)

    selection = benchmark.pedantic(
        selector.select, args=(TaskType.NODE_CLASSIFICATION, nc_data),
        kwargs={"budget": budget}, rounds=3, iterations=1)

    if name == "unconstrained":
        assert selection.method == "shadow_saint"
        assert selection.within_budget
    elif name == "time priority":
        fastest = min(selection.candidates, key=lambda e: e.time_seconds)
        assert selection.method == fastest.method
    elif name == "memory priority":
        smallest = min(selection.candidates, key=lambda e: e.memory_bytes)
        assert selection.method == smallest.method
    elif name == "tight memory":
        assert selection.method != "rgcn"
        assert selection.within_budget
    else:  # infeasible
        assert not selection.within_budget

    _ROWS.append({
        "budget": name,
        "selected_method": selection.method,
        "within_budget": selection.within_budget,
        "est_memory_mb": round(selection.estimate.memory_bytes / 1e6, 2),
        "est_time_s": round(selection.estimate.time_seconds, 3),
    })
    if name == BUDGETS[-1][0]:
        save_report(
            "ablation_method_selection",
            "Automatic GML method selection under task budgets (paper §IV-A)",
            _ROWS,
            notes=["Selection is estimate-driven and costs microseconds, so it adds "
                   "nothing to the training budget."])


@pytest.mark.benchmark(group="ablation-method-selection")
def test_estimator_orders_methods_like_measurements(benchmark, nc_data, dblp_platform):
    """The cost model must reproduce the measured full-KG ordering: RGCN uses
    the most memory among the three NC methods (paper Fig 13C)."""
    estimator = dblp_platform.gmlaas.training_manager.selector.estimator

    def estimate_all():
        return {m: estimator.estimate(m, nc_data) for m in
                ("rgcn", "graph_saint", "shadow_saint")}

    estimates = benchmark.pedantic(estimate_all, rounds=5, iterations=1)
    assert estimates["rgcn"].memory_bytes == max(e.memory_bytes
                                                 for e in estimates.values())
