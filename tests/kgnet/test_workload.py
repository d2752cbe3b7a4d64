"""Unit/integration tests for the SPARQL-ML benchmark workload generator."""

import pytest

from repro.exceptions import SPARQLMLError
from repro.gml.tasks import TaskType
from repro.kgnet import KGNet
from repro.kgnet.sparqlml.parser import SPARQLMLParser
from benchmarks.sparqlml_workload import SPARQLMLWorkloadGenerator, run_workload


@pytest.fixture(scope="module")
def workload_platform(trained_platform):
    """The session platform already has one NC and one LP model registered."""
    return trained_platform


class TestWorkloadGeneration:
    def test_requires_trained_models(self, dblp_graph):
        platform = KGNet()
        platform.load_graph(dblp_graph)
        generator = SPARQLMLWorkloadGenerator(platform)
        with pytest.raises(SPARQLMLError):
            generator.generate(num_queries=2)

    def test_single_predicate_query_parses(self, workload_platform):
        generator = SPARQLMLWorkloadGenerator(workload_platform, seed=0)
        model = workload_platform.list_models()[0]
        query = generator.single_predicate_query(model)
        assert query.num_predicates == 1
        assert query.target_cardinality > 0
        parser = SPARQLMLParser()
        _, predicates = parser.parse_select(query.text)
        assert len(predicates) == 1
        assert predicates[0].task_type == model.task_type

    def test_selectivity_reduces_cardinality(self, workload_platform):
        generator = SPARQLMLWorkloadGenerator(workload_platform, seed=0)
        model = next(m for m in workload_platform.list_models()
                     if m.task_type == TaskType.NODE_CLASSIFICATION)
        full = generator.single_predicate_query(model, selectivity=1.0)
        small = generator.single_predicate_query(model, selectivity=0.1)
        assert small.target_cardinality < full.target_cardinality
        assert "FILTER" in small.text and "FILTER" not in full.text

    def test_multi_predicate_query(self, workload_platform):
        generator = SPARQLMLWorkloadGenerator(workload_platform, seed=0)
        models = workload_platform.list_models()
        query = generator.multi_predicate_query(models[:2])
        assert query.num_predicates == 2
        parser = SPARQLMLParser()
        _, predicates = parser.parse_select(query.text)
        assert len(predicates) == 2

    def test_generate_mixes_query_shapes(self, workload_platform):
        generator = SPARQLMLWorkloadGenerator(workload_platform, seed=1)
        queries = generator.generate(num_queries=6, selectivities=(1.0, 0.25))
        assert len(queries) == 6
        assert any(q.num_predicates >= 2 for q in queries)
        assert any(q.selectivity < 1.0 for q in queries)
        assert len({q.name for q in queries}) == 6
        for query in queries:
            assert "kgnet:" in query.text
            assert "describe" not in query.text.lower()
            assert query.describe()["num_predicates"] == query.num_predicates


class TestWorkloadExecution:
    def test_run_workload_reports(self, workload_platform):
        generator = SPARQLMLWorkloadGenerator(workload_platform, seed=2)
        queries = generator.generate(num_queries=3, selectivities=(1.0, 0.2))
        reports = run_workload(workload_platform, queries)
        assert len(reports) == 3
        for report in reports:
            assert report.rows >= 0
            assert report.http_calls >= 1
            assert report.plan in ("per_instance", "dictionary")
            row = report.as_row()
            assert row["plan"] == report.plan
            assert row["http_calls"] == report.http_calls

    def test_forced_plan_changes_call_counts(self, workload_platform):
        generator = SPARQLMLWorkloadGenerator(workload_platform, seed=3)
        model = next(m for m in workload_platform.list_models()
                     if m.task_type == TaskType.NODE_CLASSIFICATION)
        query = generator.single_predicate_query(model)
        per_instance = run_workload(workload_platform, [query],
                                    force_plan="per_instance")[0]
        dictionary = run_workload(workload_platform, [query],
                                  force_plan="dictionary")[0]
        assert dictionary.http_calls == 1
        assert per_instance.http_calls == per_instance.rows
        assert per_instance.rows == dictionary.rows

    def test_multi_predicate_execution(self, workload_platform):
        generator = SPARQLMLWorkloadGenerator(workload_platform, seed=4)
        models = workload_platform.list_models()
        query = generator.multi_predicate_query(models[:2])
        report = run_workload(workload_platform, [query])[0]
        assert report.rows > 0
        # Two user-defined predicates need at least two inference requests
        # (one per predicate) unless both use the dictionary plan.
        assert report.http_calls >= 1
