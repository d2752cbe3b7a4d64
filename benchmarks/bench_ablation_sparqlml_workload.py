"""Ablation E10 — SPARQL-ML optimizer benchmark workload (paper §III-C).

The paper identifies "benchmarks to evaluate optimization approaches for
SPARQL-ML queries" — queries varying in the number of user-defined
predicates and the cardinality of their variables — as a research
opportunity.  This benchmark generates such a workload with
:class:`sparqlml_workload.SPARQLMLWorkloadGenerator` (beside this file), executes it
once with the cost-based plan optimizer and once with each plan forced, and
reports the total number of UDF/HTTP calls each strategy needs.
"""

from __future__ import annotations

import pytest

from harness import save_report
from repro.datasets import dblp_author_affiliation_task, dblp_paper_venue_task
from sparqlml_workload import SPARQLMLWorkloadGenerator, run_workload

_ROWS = []
_STRATEGIES = [("optimizer", None), ("force per_instance", "per_instance"),
               ("force dictionary", "dictionary")]


@pytest.fixture(scope="module")
def workload_platform(dblp_platform):
    tasks = {m.task_type for m in dblp_platform.list_models()}
    if "node_classification" not in tasks:
        dblp_platform.train_task(dblp_paper_venue_task(), method="graph_saint")
    if "link_prediction" not in tasks:
        dblp_platform.train_task(dblp_author_affiliation_task(), method="morse",
                                 meta_sampling="d2h1")
    return dblp_platform


@pytest.fixture(scope="module")
def workload(workload_platform):
    generator = SPARQLMLWorkloadGenerator(workload_platform, seed=5)
    return generator.generate(num_queries=6, selectivities=(1.0, 0.5, 0.1))


@pytest.mark.benchmark(group="ablation-sparqlml-workload")
@pytest.mark.parametrize("label,plan", _STRATEGIES, ids=[s[0] for s in _STRATEGIES])
def test_workload_execution_strategy(benchmark, workload_platform, workload,
                                     label, plan):
    reports = benchmark.pedantic(run_workload, args=(workload_platform, workload),
                                 kwargs={"force_plan": plan}, rounds=1, iterations=1)
    total_calls = sum(r.http_calls for r in reports)
    total_rows = sum(r.rows for r in reports)
    assert total_rows > 0
    _ROWS.append({
        "strategy": label,
        "queries": len(reports),
        "total_http_calls": total_calls,
        "total_rows": total_rows,
        "total_exec_s": round(sum(r.elapsed_seconds for r in reports), 4),
    })
    benchmark.extra_info["total_http_calls"] = total_calls

    if label == _STRATEGIES[-1][0]:
        optimizer_calls = next(r["total_http_calls"] for r in _ROWS
                               if r["strategy"] == "optimizer")
        forced_calls = [r["total_http_calls"] for r in _ROWS
                        if r["strategy"] != "optimizer"]
        # The cost-based optimizer must not be worse than either fixed strategy.
        assert optimizer_calls <= max(forced_calls)
        per_query_rows = [r.as_row() for r in reports]
        save_report(
            "ablation_sparqlml_workload",
            "SPARQL-ML optimizer benchmark workload (paper §III-C): "
            "total UDF/HTTP calls per execution strategy",
            _ROWS,
            notes=["Workload: mixed NC/LP predicates, single- and two-predicate "
                   "queries, selectivities 1.0/0.5/0.1.",
                   "Per-query details of the last run: " +
                   "; ".join(f"{row['name']}={row['http_calls']} calls"
                             for row in per_query_rows)])
