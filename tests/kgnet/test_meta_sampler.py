"""Unit tests for the meta-sampler (task-specific subgraph extraction)."""

import pytest

from repro.datasets import yago_place_country_task
from repro.exceptions import MetaSamplingError
from repro.gml.tasks import TaskSpec, TaskType
from repro.kgnet import MetaSampler, MetaSamplingConfig
from repro.rdf import DBLP, Graph, RDF_TYPE
from repro.sparql import SPARQLEndpoint


class TestMetaSamplingConfig:
    def test_labels(self):
        assert MetaSamplingConfig(1, 1).label == "d1h1"
        assert MetaSamplingConfig(2, 2).label == "d2h2"

    def test_from_label(self):
        config = MetaSamplingConfig.from_label("d2h1")
        assert config.direction == 2 and config.hops == 1

    def test_from_label_invalid(self):
        with pytest.raises(MetaSamplingError):
            MetaSamplingConfig.from_label("h1d1")

    def test_defaults_follow_paper(self):
        """Paper §IV-B.2: d1h1 for node classification, d2h1 for link prediction."""
        assert MetaSamplingConfig.default_for_task(TaskType.NODE_CLASSIFICATION).label == "d1h1"
        assert MetaSamplingConfig.default_for_task(TaskType.LINK_PREDICTION).label == "d2h1"

    def test_invalid_parameters(self):
        with pytest.raises(MetaSamplingError):
            MetaSamplingConfig(direction=3)
        with pytest.raises(MetaSamplingError):
            MetaSamplingConfig(hops=0)


class TestMetaSamplerExtraction:
    def test_subgraph_smaller_than_kg(self, dblp_graph, paper_venue_task):
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        subgraph, report = sampler.extract(dblp_graph, paper_venue_task)
        assert 0 < len(subgraph) < len(dblp_graph)
        assert report.num_subgraph_triples == len(subgraph)
        assert report.num_kg_triples == len(dblp_graph)
        assert 0 < report.triple_reduction < 1
        assert report.config_label == "d1h1"

    def test_label_edges_preserved(self, dblp_graph, paper_venue_task):
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        subgraph, _ = sampler.extract(dblp_graph, paper_venue_task)
        kg_labels = dblp_graph.count(None, paper_venue_task.label_predicate, None)
        sub_labels = subgraph.count(None, paper_venue_task.label_predicate, None)
        assert sub_labels == kg_labels

    def test_target_types_preserved(self, dblp_graph, paper_venue_task):
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        subgraph, _ = sampler.extract(dblp_graph, paper_venue_task)
        assert subgraph.count(None, RDF_TYPE, paper_venue_task.target_node_type) == \
            dblp_graph.count(None, RDF_TYPE, paper_venue_task.target_node_type)

    def test_d1_excludes_incoming_only_nodes(self, dblp_graph, paper_venue_task):
        """Nodes only reachable via incoming edges (events, datasets) are pruned."""
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        subgraph, _ = sampler.extract(dblp_graph, paper_venue_task)
        assert subgraph.count(None, RDF_TYPE, DBLP["ConferenceEvent"]) == 0
        assert dblp_graph.count(None, RDF_TYPE, DBLP["ConferenceEvent"]) > 0

    def test_d2_includes_incoming_edges(self, dblp_graph, paper_venue_task):
        d1, _ = MetaSampler(MetaSamplingConfig(1, 1)).extract(dblp_graph, paper_venue_task)
        d2, _ = MetaSampler(MetaSamplingConfig(2, 1)).extract(dblp_graph, paper_venue_task)
        assert len(d2) > len(d1)
        assert d2.count(None, DBLP["presentsPaper"], None) > 0

    def test_more_hops_grow_the_subgraph(self, dblp_graph, paper_venue_task):
        h1, _ = MetaSampler(MetaSamplingConfig(1, 1)).extract(dblp_graph, paper_venue_task)
        h2, _ = MetaSampler(MetaSamplingConfig(1, 2)).extract(dblp_graph, paper_venue_task)
        assert len(h2) >= len(h1)

    def test_link_prediction_keeps_target_edges(self, dblp_graph, author_affiliation_task):
        sampler = MetaSampler(MetaSamplingConfig(2, 1))
        subgraph, _ = sampler.extract(dblp_graph, author_affiliation_task)
        assert subgraph.count(None, author_affiliation_task.target_predicate, None) == \
            dblp_graph.count(None, author_affiliation_task.target_predicate, None)

    def test_subgraph_is_subset_of_kg(self, dblp_graph, paper_venue_task):
        subgraph, _ = MetaSampler().extract(dblp_graph, paper_venue_task)
        assert all(triple in dblp_graph for triple in subgraph)

    def test_override_config_at_extract_time(self, dblp_graph, paper_venue_task):
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        _, report = sampler.extract(dblp_graph, paper_venue_task,
                                    MetaSamplingConfig(2, 1))
        assert report.config_label == "d2h1"

    def test_missing_target_type_raises(self, dblp_graph):
        task = TaskSpec(task_type=TaskType.NODE_CLASSIFICATION,
                        target_node_type=DBLP["Nonexistent"],
                        label_predicate=DBLP["publishedIn"])
        with pytest.raises(MetaSamplingError):
            MetaSampler().extract(dblp_graph, task)

    def test_literals_kept_or_dropped(self, dblp_graph, paper_venue_task):
        with_literals, _ = MetaSampler(MetaSamplingConfig(1, 1, include_literals=True)) \
            .extract(dblp_graph, paper_venue_task)
        without_literals, _ = MetaSampler(MetaSamplingConfig(1, 1, include_literals=False)) \
            .extract(dblp_graph, paper_venue_task)
        assert len(with_literals) > len(without_literals)

    def test_entity_similarity_task_seed(self):
        task = TaskSpec(task_type=TaskType.ENTITY_SIMILARITY,
                        entity_node_type=DBLP["Person"])
        assert task.seed_node_type == DBLP["Person"]

    def test_kg_prime_is_built_in_one_bulk_insert(self, dblp_graph, paper_venue_task,
                                                  monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("extract inserted a triple through Graph.add")

        monkeypatch.setattr(Graph, "add", refuse)
        subgraph, report = MetaSampler().extract(dblp_graph.snapshot(), paper_venue_task)
        assert subgraph.epoch == 1
        assert len(subgraph) == report.num_subgraph_triples
        assert len(subgraph.dictionary) < len(dblp_graph.dictionary)

    def test_report_as_dict(self, dblp_graph, paper_venue_task):
        _, report = MetaSampler().extract(dblp_graph, paper_venue_task)
        payload = report.as_dict()
        assert payload["config"] == "d1h1"
        assert payload["num_subgraph_triples"] < payload["num_kg_triples"]


# ---------------------------------------------------------------------------
# Differential: extract == the rule written as a SPARQL CONSTRUCT
# ---------------------------------------------------------------------------

def _walk(seed, steps, direction, end):
    """Bind ``end`` to every node a walk of ``steps`` hops from a target
    reaches; a hop follows an out-edge (or, for ``direction`` 2, an in-edge)
    to a non-literal node."""
    nodes = [f"?n{i}" for i in range(steps)] + [end]
    lines = [f"{nodes[0]} a {seed.n3()} ."]
    for i in range(1, steps + 1):
        a, b = nodes[i - 1], nodes[i]
        lines.append(f"{a} ?e{i} {b} ." if direction == 1 else
                     f"{{ {a} ?e{i} {b} }} UNION {{ {b} ?e{i} {a} }}")
        lines.append(f"FILTER(!isLiteral({b}))")
    return " ".join(lines)


def construct_oracle(task, config):
    """The meta-sampling rule as one CONSTRUCT: edges of the nodes within
    h - 1 hops, types of the nodes within h hops, and the task's edges."""
    seed, d, h = task.seed_node_type, config.direction, config.hops
    rdf_type = RDF_TYPE.n3()
    literals = "" if config.include_literals else "FILTER(!isLiteral(?o))"
    branches = []
    for steps in range(h):
        branches.append(f"{_walk(seed, steps, d, '?s')} ?s ?p ?o . {literals}")
        if d == 2:
            branches.append(f"{_walk(seed, steps, d, '?o')} ?s ?p ?o .")
    for steps in range(h + 1):
        branches.append(
            f"{_walk(seed, steps, d, '?s')} ?s ?p ?o . FILTER(?p = {rdf_type})")
    if task.task_type == TaskType.NODE_CLASSIFICATION:
        label = task.label_predicate.n3()
        branches.append(f"?s a {seed.n3()} . ?s ?p ?o . FILTER(?p = {label})")
    else:
        edge = task.target_predicate.n3()
        branches.append(f"?s ?p ?o . FILTER(?p = {edge})")
        branches.append(f"?s {edge} ?y . ?s ?p ?o . FILTER(?p = {rdf_type})")
        branches.append(f"?x {edge} ?s . ?s ?p ?o . FILTER(?p = {rdf_type})")
    where = " UNION ".join(f"{{ {branch} }}" for branch in branches)
    return f"CONSTRUCT {{ ?s ?p ?o }} WHERE {{ {where} }}"


@pytest.fixture(scope="module")
def place_country_task():
    return yago_place_country_task()


@pytest.mark.parametrize("include_literals", [True, False],
                         ids=["literals", "no-literals"])
@pytest.mark.parametrize("label", ["d1h1", "d2h1", "d1h2", "d2h2"])
@pytest.mark.parametrize("graph_name,task_name", [
    ("dblp_graph", "paper_venue_task"),
    ("dblp_graph", "author_affiliation_task"),
    ("yago_graph", "place_country_task"),
], ids=["dblp-paper-venue", "dblp-author-affiliation", "yago-place-country"])
def test_extract_equals_the_construct_oracle(request, graph_name, task_name, label,
                                             include_literals):
    graph = request.getfixturevalue(graph_name)
    task = request.getfixturevalue(task_name)
    base = MetaSamplingConfig.from_label(label)
    config = MetaSamplingConfig(base.direction, base.hops, include_literals)
    subgraph, _ = MetaSampler().extract(graph, task, config)
    endpoint = SPARQLEndpoint()
    endpoint.load(graph)
    expected = endpoint.query(construct_oracle(task, config))
    assert set(subgraph) == set(expected)
