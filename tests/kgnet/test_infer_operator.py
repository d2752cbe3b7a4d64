"""Inference as a batched id-space operator (``infer`` plan nodes).

Four things are pinned here:

* the ``infer`` node answers exactly what :class:`ReferenceQueryEvaluator`
  answers when it runs the *rendered* Fig 11 / Fig 12 text through the scalar
  UDFs — for every ``sparqlml_infer`` benchmark class and for the shapes
  around a prediction (OPTIONAL, UNION, LIMIT, DISTINCT, ORDER BY, FILTER,
  two user-defined predicates, unknown and post-training nodes);
* the two plans of the paper return the same rows and report *their own*
  GMLaaS calls — one per distinct target, or one — also when they run
  concurrently, and under a deadline;
* link-prediction output for a source does not depend on what it is batched
  with, ties going to the lower candidate index;
* the compile cache serves equal rows on a hit and is dropped by every kind
  of write, a vanished model raising instead of being served stale.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import (
    DBLPConfig,
    dblp_author_affiliation_task,
    dblp_paper_venue_task,
    generate_dblp_kg,
)
from repro.exceptions import ModelNotFoundError
from repro.gml.tasks import TaskType
from repro.kgnet import KGNet, TrainingManagerConfig
from repro.kgnet.api.envelopes import APIRequest
from repro.rdf import DBLP, IRI, RDF_TYPE
from repro.server.service import ServiceHandler, ServiceRequest
from repro.sparql.parser import parse_query
from repro.sparql.reference import ReferenceQueryEvaluator
from tests.kgnet.test_sparqlml import FIG8_INSERT, FIG9_DELETE

STRESS = bool(os.environ.get("KGNET_STRESS"))

PREFIXES = ("prefix dblp: <https://www.dblp.org/>\n"
            "prefix kgnet: <https://www.kgnet.com/>\n")
NC = ("?paper ?NC ?venue. ?NC a kgnet:NodeClassifier. "
      "?NC kgnet:TargetNode dblp:Publication. "
      "?NC kgnet:NodeLabel dblp:publishedIn. ")
LP = ("?author ?LP ?aff. ?LP a kgnet:LinkPredictor. "
      "?LP kgnet:SourceNode dblp:Person. "
      "?LP kgnet:DestinationNode dblp:Affiliation. "
      "?LP kgnet:TopK-Links {k}. ")
LATE_PAPER = DBLP["publication/after-training"]

#: The four classes of the ``sparqlml_infer`` benchmark workload.
BENCHMARK_CLASSES = {
    "nc_all": "select ?paper ?venue where { ?paper a dblp:Publication. " + NC + "}",
    "nc_filtered": ("select ?paper ?venue where { ?paper a dblp:Publication. "
                    "?paper dblp:yearOfPublication ?y. " + NC
                    + "FILTER(?y >= 2004 && ?y <= 2009) }"),
    "lp_topk": ("select ?author ?aff where { ?author a dblp:Person. "
                + LP.format(k=3) + "}"),
    "nc_join": ("select ?paper ?venue ?author ?title where { "
                "?paper a dblp:Publication. ?paper dblp:authoredBy ?author. "
                "?author dblp:affiliation <https://www.dblp.org/affiliation/1>. "
                "?paper dblp:title ?title. " + NC + "}"),
}

#: What can stand around a prediction.  ORDER BY and FILTER see the solutions
#: of the WHERE group, where Figs 11-12 leave the predicted variable unbound
#: (it is a SELECT expression): both engines order and filter before they
#: project, so ``?paper`` decides the order below and ``!BOUND`` keeps rows.
SHAPES = {
    "optional": ("select ?paper ?pages ?venue where { ?paper a dblp:Publication. "
                 "OPTIONAL { ?paper dblp:pages ?pages } " + NC + "}"),
    "union": ("select ?paper ?venue where { "
              "{ ?paper dblp:yearOfPublication 2005 } UNION "
              "{ ?paper dblp:yearOfPublication 2006 } "
              "?paper a dblp:Publication. " + NC + "}"),
    "distinct": ("select distinct ?venue where { ?paper a dblp:Publication. "
                 + NC + "}"),
    "order_by": ("select ?paper ?venue where { ?paper a dblp:Publication. "
                 + NC + "} order by ?venue desc(?paper) limit 7"),
    "filter": ("select ?paper ?venue where { ?paper a dblp:Publication. "
               + NC + "FILTER(!BOUND(?venue)) }"),
    "filter_out": ("select ?paper ?venue where { ?paper a dblp:Publication. "
                   + NC + "FILTER(?venue != dblp:nowhere) }"),
    "two_predicates": ("select ?paper ?venue ?author ?aff where { "
                       "?paper a dblp:Publication. "
                       "?paper dblp:authoredBy ?author. " + NC
                       + LP.format(k=2) + "}"),
    "top_1_link": ("select ?author ?aff where { ?author a dblp:Person. "
                   + LP.format(k=1) + "}"),
    "unknown_node": ("select ?paper ?venue where { VALUES ?paper { "
                     "<https://www.dblp.org/publication/1> dblp:never-stored "
                     f"{LATE_PAPER.n3()} }} " + NC + "}"),
    "select_star": "select * where { ?paper a dblp:Publication. " + NC + "}",
}


def _training_config() -> TrainingManagerConfig:
    return TrainingManagerConfig(
        feature_dim=16, hidden_dim=16, embedding_dim=16, epochs_full_batch=4,
        epochs_sampling=3, epochs_kge=4, learning_rate=0.05, seed=0)


def _insert_late_paper(platform: KGNet) -> None:
    platform.sparql(
        PREFIXES + f"INSERT DATA {{ {LATE_PAPER.n3()} a dblp:Publication ; "
        'dblp:title "Written after training" ; dblp:yearOfPublication 2005 . }')


@pytest.fixture(scope="module")
def platform():
    """NC + LP models, and one Publication the NC model has never seen."""
    platform = KGNet(training_config=_training_config())
    platform.load_graph(generate_dblp_kg(DBLPConfig(scale=0.25, seed=3)))
    platform.train_task(dblp_paper_venue_task(), method="rgcn")
    platform.train_task(dblp_author_affiliation_task(), method="morse",
                        meta_sampling="d2h1")
    _insert_late_paper(platform)
    return platform


def multiset(result) -> Counter:
    return Counter(tuple(sorted((variable.name, term.n3())
                                for variable, term in solution.items()))
                   for solution in result)


def oracle_for(platform: KGNet, rewritten_text: str):
    """The rendered Fig 11/12 text on the reference evaluator (scalar UDFs)."""
    graph = platform.endpoint.dataset.snapshot().union()
    reference = ReferenceQueryEvaluator(graph, udfs=platform.endpoint.udfs)
    return reference.evaluate(parse_query(rewritten_text))


def infer_nodes(plan: list) -> list:
    found = []
    for node in plan:
        if node["node"] == "infer":
            found.append(node)
        for key in ("children", "rewritten"):
            found.extend(infer_nodes(node.get(key, [])))
        for branch in node.get("branches", []):
            found.extend(infer_nodes(branch))
    return found


def plans_of(text: str) -> tuple:
    return ("per_instance", "dictionary") if "NodeClassifier" in text else (None,)


# ---------------------------------------------------------------------------
# (i) infer node == reference evaluator on the rendered text
# ---------------------------------------------------------------------------

class TestInferNodeAgainstReference:
    @pytest.mark.parametrize("name", sorted({**BENCHMARK_CLASSES, **SHAPES}))
    def test_rows_equal_the_oracles(self, platform, name):
        text = PREFIXES + {**BENCHMARK_CLASSES, **SHAPES}[name]
        for force_plan in plans_of(text):
            report = platform.sparqlml.execute_select(text, force_plan=force_plan)
            rewritten = report.rewritten[-1].text
            explained = platform.endpoint.explain(rewritten)
            assert infer_nodes(explained["plan"]), "the call must run as an infer node"
            expected = oracle_for(platform, rewritten)
            assert [v.name for v in report.results.variables] == \
                [v.name for v in expected.variables]
            if name == "order_by":
                assert report.results.to_python() == expected.to_python()
                assert len(report.results) == 7
            else:
                assert multiset(report.results) == multiset(expected), force_plan
            if name != "filter_out":
                assert len(report.results) > 0

    def test_limit_is_a_prefix_of_some_order(self, platform):
        text = PREFIXES + BENCHMARK_CLASSES["nc_all"]
        for force_plan in plans_of(text):
            limited = platform.sparqlml.execute_select(
                text + " limit 5", force_plan=force_plan)
            everything = multiset(oracle_for(
                platform, platform.sparqlml.execute_select(
                    text, force_plan=force_plan).rewritten[-1].text))
            assert len(limited.results) == 5
            assert not multiset(limited.results) - everything
            # LIMIT stops the pipeline: five rows cost at most the ramp's
            # 1 + 2 + 4 targets, not one call per Publication.
            if force_plan == "per_instance":
                assert limited.http_calls <= 7

    def test_unknown_and_post_training_nodes_are_unbound_under_every_plan(
            self, platform):
        text = PREFIXES + SHAPES["unknown_node"]
        for force_plan in ("per_instance", "dictionary"):
            rows = platform.sparqlml.execute_select(
                text, force_plan=force_plan).results.to_python()
            by_paper = {row["paper"]: row.get("venue") for row in rows}
            assert by_paper[LATE_PAPER.value] is None
            assert by_paper["https://www.dblp.org/never-stored"] is None
            assert by_paper["https://www.dblp.org/publication/1"] is not None

    def test_scalar_udf_is_the_resolver_with_one_input(self, platform):
        """Nested in an expression the call is no infer node, and agrees."""
        model = next(m for m in platform.list_models()
                     if m.task_type == TaskType.NODE_CLASSIFICATION)
        nested = (PREFIXES + "select ?paper (COALESCE(sql:UDFS.getNodeClass("
                  f"{model.uri.n3()}, ?paper), 'none') AS ?venue) "
                  "where { ?paper a dblp:Publication }")
        assert not infer_nodes(platform.endpoint.explain(nested)["plan"])
        direct = nested.replace("COALESCE(", "").replace(", 'none')", "")
        assert infer_nodes(platform.endpoint.explain(direct)["plan"])
        scalar = {row["paper"]: row["venue"]
                  for row in platform.endpoint.query(nested).to_python()}
        batched = {row["paper"]: row.get("venue", "none")
                   for row in platform.endpoint.query(direct).to_python()}
        assert scalar == batched and scalar[LATE_PAPER.value] == "none"

    def test_bind_runs_as_an_infer_node_too(self, platform):
        model = next(m for m in platform.list_models()
                     if m.task_type == TaskType.NODE_CLASSIFICATION)
        text = (PREFIXES + "select ?paper ?venue where { "
                "?paper a dblp:Publication . OPTIONAL { "
                f"BIND(sql:UDFS.getNodeClass({model.uri.n3()}, ?paper) AS ?venue) "
                "} FILTER(BOUND(?venue)) }")
        assert infer_nodes(platform.endpoint.explain(text)["plan"])
        result = platform.endpoint.query(text)
        assert multiset(result) == multiset(oracle_for(platform, text))
        assert LATE_PAPER.value not in {row["paper"] for row in result.to_python()}
        # OPTIONAL starts its group once per input batch; what the node has
        # resolved is kept per query, so a target is still asked for once.
        assert platform.endpoint.thread_statistics().inference_calls == \
            platform.graph.count(None, RDF_TYPE, DBLP["Publication"])

    @settings(max_examples=60 if STRESS else 12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(low=st.integers(1998, 2024), span=st.integers(0, 6),
           limit=st.one_of(st.none(), st.integers(1, 40)),
           distinct=st.booleans(), force_plan=st.sampled_from(
               ["per_instance", "dictionary"]))
    def test_random_filters_and_slices(self, platform, low, span, limit,
                                       distinct, force_plan):
        text = (PREFIXES + f"select {'distinct ' if distinct else ''}?paper ?venue "
                "where { ?paper a dblp:Publication. "
                "?paper dblp:yearOfPublication ?y. " + NC
                + f"FILTER(?y >= {low} && ?y <= {low + span}) }} order by ?paper"
                + (f" limit {limit}" if limit else ""))
        report = platform.sparqlml.execute_select(text, force_plan=force_plan)
        expected = oracle_for(platform, report.rewritten[-1].text)
        assert report.results.to_python() == expected.to_python()


# ---------------------------------------------------------------------------
# (ii) the two plans: same rows, each its own call count
# ---------------------------------------------------------------------------

class TestPlansAndCallCounts:
    @pytest.mark.parametrize("name", ["nc_all", "nc_filtered", "nc_join"])
    def test_plans_agree_and_count_their_own_calls(self, platform, name):
        text = PREFIXES + BENCHMARK_CLASSES[name]
        per_instance = platform.sparqlml.execute_select(
            text, force_plan="per_instance")
        dictionary = platform.sparqlml.execute_select(
            text, force_plan="dictionary")
        assert multiset(per_instance.results) == multiset(dictionary.results)
        targets = {row["paper"] for row in per_instance.results.to_python()}
        assert per_instance.http_calls == len(targets)
        assert dictionary.http_calls == 1
        # nc_join repeats a paper once per author: a target is asked for once.
        if name == "nc_join":
            assert len(per_instance.results) > len(targets)

    def test_link_prediction_goes_one_call_per_evaluator_batch(self, platform):
        report = platform.sparqlml.execute_select(
            PREFIXES + BENCHMARK_CLASSES["lp_topk"])
        rows = len(report.results)
        assert rows > 8
        # Batches ramp 1, 2, 4 ... 256 rows: far fewer calls than rows.
        assert 1 <= report.http_calls <= rows.bit_length()

    def test_explain_analyze_shows_the_counts_the_report_holds(self, platform):
        text = PREFIXES + BENCHMARK_CLASSES["nc_join"]
        for force_plan, calls in (("per_instance", None), ("dictionary", 1)):
            report = platform.sparqlml.execute_select(text, force_plan=force_plan)
            explained = platform.endpoint.explain(report.rewritten[-1].text,
                                                  analyze=True)
            nodes = infer_nodes(explained["plan"])
            assert sum(node["calls"] for node in nodes) == report.http_calls
            outer = nodes[-1]          # the projection's node runs, and prints, last
            assert outer["rows"] == len(report.results)
            assert outer["distinct_targets"] == len(
                {row["paper"] for row in report.results.to_python()})
            if calls is not None:
                assert report.http_calls == calls

    def test_concurrent_selects_report_their_own_calls(self, platform):
        text = PREFIXES + BENCHMARK_CLASSES["nc_all"]
        targets = platform.graph.count(None, RDF_TYPE, DBLP["Publication"])
        manager = platform.gmlaas
        manager.call_latency_seconds = 0.0005     # keep per_instance in flight
        reports = {"per_instance": [], "dictionary": []}
        errors = []
        running = threading.Event()

        def per_instance():
            try:
                running.set()
                reports["per_instance"].append(platform.sparqlml.execute_select(
                    text, force_plan="per_instance"))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                running.clear()

        def dictionary():
            try:
                running.wait(5)
                while running.is_set() or not reports["dictionary"]:
                    reports["dictionary"].append(
                        platform.sparqlml.execute_select(
                            text, force_plan="dictionary"))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        before = manager.http_calls
        threads = [threading.Thread(target=per_instance),
                   threading.Thread(target=dictionary)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            manager.call_latency_seconds = 0.0
        assert not errors and not any(t.is_alive() for t in threads)
        assert [r.http_calls for r in reports["per_instance"]] == [targets]
        assert len(reports["dictionary"]) > 1, "the selects must have overlapped"
        assert {r.http_calls for r in reports["dictionary"]} == {1}
        # The process-wide counter saw all of them; no report did.
        assert manager.http_calls - before == targets + len(reports["dictionary"])

    def test_deadline_reaches_inference(self, platform):
        """A typed 504 inside twice the deadline, most calls never made."""
        text = PREFIXES + BENCHMARK_CLASSES["nc_all"]
        targets = platform.graph.count(None, RDF_TYPE, DBLP["Publication"])
        manager = platform.gmlaas
        manager.call_latency_seconds = 0.02       # 100 targets: 2 s undisturbed
        deadline = 0.25
        assert targets * manager.call_latency_seconds > 4 * deadline
        handler = ServiceHandler(platform.api)
        body = json.dumps({"query": text, "force_plan": "per_instance",
                           "timeout": deadline}).encode("utf-8")
        before = manager.http_calls
        started = time.monotonic()
        try:
            response = handler.handle(ServiceRequest(
                "POST", "/kgnet/v1/sparqlml_select",
                {"Content-Type": "application/json"}, body))
            payload = json.loads(response.read_body())
        finally:
            manager.call_latency_seconds = 0.0
        elapsed = time.monotonic() - started
        assert response.status == 504
        assert payload["error"]["code"] == "QUERY_TIMEOUT"
        assert elapsed < 2 * deadline
        assert 0 < manager.http_calls - before < targets // 2

    def test_timeout_is_validated_like_the_sparql_ops(self, platform):
        response = platform.api.dispatch(APIRequest(
            op="sparqlml_select",
            params={"query": PREFIXES + BENCHMARK_CLASSES["nc_all"],
                    "timeout": -1}))
        assert response.error["code"] == "BAD_REQUEST"


# ---------------------------------------------------------------------------
# (iii) batched link-prediction kernel
# ---------------------------------------------------------------------------

class TestBatchedLinkPrediction:
    @pytest.fixture(scope="class", params=["distmult", "transe"])
    def tied_model(self, request, platform):
        """The trained LP model with two pairs of identical candidates."""
        trained = next(m for m in platform.list_models()
                       if m.task_type == TaskType.LINK_PREDICTION)
        stored = platform.gmlaas.model_store.get(trained.uri)
        embeddings = stored.entity_embeddings.copy()
        candidates = stored.candidate_tails
        assert len(candidates) >= 4
        embeddings[candidates[3]] = embeddings[candidates[0]]
        embeddings[candidates[2]] = embeddings[candidates[1]]
        model = copy.copy(stored.scorer)
        model.decoder = request.param
        uri = IRI(f"https://www.kgnet.com/model/tied/{request.param}")
        artefact = dataclasses.replace(stored, entity_embeddings=embeddings,
                                       scorer=model)
        platform.gmlaas.model_store.add(uri, artefact)
        yield uri.value, artefact
        platform.gmlaas.delete_model(uri)

    def test_alone_equals_inside_a_batch_of_256(self, platform, tied_model):
        uri, artefact = tied_model
        names = artefact.entity_names
        sources = [names[i % len(names)] for i in range(0, 256 * 3, 3)]
        sources[17] = "https://www.dblp.org/person/nobody"
        k = len(artefact.candidate_tails)
        batch = platform.gmlaas.infer_batch(uri, sources, k=k, mode="links")
        assert [record["input"] for record in batch] == sources
        assert batch[17]["output"] == []
        manager = platform.gmlaas
        for source, record in zip(sources, batch):
            alone = manager.infer(uri, [source], "links", k)[0]
            assert alone == record["output"]          # entities, ranks, scores
            assert alone == platform.gmlaas.infer_links(uri, source, k=k)
        # Every prefix of the ranking is the top-k of that k.
        top3 = platform.gmlaas.infer_batch(uri, sources[:40], k=3, mode="links")
        assert [r["output"] for r in top3] == \
            [r["output"][:3] for r in batch[:40]]

    def test_ties_rank_by_candidate_index(self, platform, tied_model):
        uri, artefact = tied_model
        names, candidates = artefact.entity_names, artefact.candidate_tails
        position = {names[tail]: index for index, tail in enumerate(candidates)}
        k = len(candidates)
        checked = 0
        for source in names[:64]:
            ranked = platform.gmlaas.infer_links(uri, source, k=k)
            assert [entry["rank"] for entry in ranked] == list(range(k))
            for above, below in zip(ranked, ranked[1:]):
                assert above["score"] >= below["score"]
                if above["score"] == below["score"]:
                    assert position[above["entity"]] < position[below["entity"]]
                    checked += 1
        assert checked >= 2 * 64                      # both planted ties, always

    def test_node_class_dictionary_of_some_nodes(self, platform):
        model = next(m for m in platform.list_models()
                     if m.task_type == TaskType.NODE_CLASSIFICATION)
        everything = platform.gmlaas.infer_node_class_dictionary(model.uri)
        some = sorted(everything)[:5] + [LATE_PAPER.value, "urn:nothing"]
        assert platform.gmlaas.infer_node_class_dictionary(model.uri, some) == \
            {node: everything[node] for node in some[:5]}
        stored = platform.gmlaas.model_store.get(model.uri)
        everything["urn:mine"] = "urn:x"              # a copy, not the artefact
        assert "urn:mine" not in stored.prediction_map


# ---------------------------------------------------------------------------
# (iv) the compile cache
# ---------------------------------------------------------------------------

class TestCompileCache:
    TEXT = PREFIXES + BENCHMARK_CLASSES["nc_filtered"]

    @pytest.fixture()
    def own_platform(self):
        platform = KGNet(training_config=_training_config())
        platform.load_graph(generate_dblp_kg(DBLPConfig(scale=0.15, seed=5)))
        platform.train_task(dblp_paper_venue_task(), method="rgcn")
        return platform

    @staticmethod
    def select(platform, **kwargs):
        report = platform.sparqlml.execute_select(TestCompileCache.TEXT, **kwargs)
        return report, platform.endpoint.thread_statistics().plan_cache_hit

    def test_hit_returns_equal_rows_and_never_cached_results(self, own_platform):
        first, hit = self.select(own_platform)
        assert not hit
        second, hit = self.select(own_platform)
        assert hit
        assert second.results.to_python() == first.results.to_python()
        assert second.results is not first.results
        assert second.rewritten[0] is first.rewritten[0]     # text rendered once
        assert (second.http_calls, first.http_calls) == (1, 1)
        # Another forced plan, another objective: entries of their own.
        _, hit = self.select(own_platform, force_plan="per_instance")
        assert not hit
        _, hit = self.select(own_platform, force_plan="per_instance")
        assert hit

    def test_a_data_write_drops_it(self, own_platform):
        before, _ = self.select(own_platform)
        _insert_late_paper(own_platform)
        after, hit = self.select(own_platform)
        assert not hit
        assert len(after.results) == len(before.results) + 1
        assert {"paper": LATE_PAPER.value} in after.results.to_python()
        assert self.select(own_platform)[1]

    def test_a_traingml_insert_drops_it(self, own_platform):
        self.select(own_platform)
        trained = own_platform.train_sparqlml(FIG8_INSERT, method="rgcn")
        report, hit = self.select(own_platform)
        assert not hit
        assert trained.model_uri in [m.uri.value for m in own_platform.list_models()]
        assert report.models[0].uri.value in \
            [m.uri.value for m in own_platform.list_models()]

    def test_a_model_delete_drops_it_and_nothing_stale_is_served(self, own_platform):
        self.select(own_platform)
        assert self.select(own_platform)[1]
        own_platform.delete_models(FIG9_DELETE)
        with pytest.raises(ModelNotFoundError):
            self.select(own_platform)

    def test_a_model_gone_from_gmlaas_alone_is_rechecked_on_a_hit(self, own_platform):
        report, _ = self.select(own_platform)
        epoch = own_platform.endpoint.dataset.epoch()
        own_platform.gmlaas.delete_model(report.models[0].uri)   # KGMeta untouched
        assert own_platform.endpoint.dataset.epoch() == epoch
        with pytest.raises(ModelNotFoundError):
            self.select(own_platform)

    def test_a_swapped_dataset_is_another_epoch(self, own_platform):
        self.select(own_platform)
        replacement = KGNet(training_config=_training_config())
        replacement.load_graph(generate_dblp_kg(DBLPConfig(scale=0.15, seed=5)))
        own_platform.endpoint.replace_dataset(replacement.endpoint.dataset)
        with pytest.raises(ModelNotFoundError):     # its KGMeta holds no model
            self.select(own_platform)


def test_lp_training_is_independent_of_the_hash_seed(tmp_path):
    """MetaSampler visits its frontier sorted by term: two processes that
    hash strings differently number KG' alike and train the same models,
    a link predictor (T3's MorsE) and a node classifier (T1's GraphSAINT)."""
    import subprocess
    import sys

    script = tmp_path / "train_lp.py"
    script.write_text(
        "import hashlib, json\n"
        "import numpy as np\n"
        "from repro.datasets import DBLPConfig, dblp_author_affiliation_task, "
        "dblp_paper_venue_task, generate_dblp_kg\n"
        "from repro.kgnet import KGNet, TrainingManagerConfig\n"
        "platform = KGNet(training_config=TrainingManagerConfig(\n"
        "    feature_dim=16, hidden_dim=16, embedding_dim=16, epochs_kge=4,\n"
        "    epochs_sampling=3, seed=0))\n"
        "platform.load_graph(generate_dblp_kg(DBLPConfig(scale=0.25, seed=3)))\n"
        "manager = platform.gmlaas.training_manager\n"
        "train, outcomes = manager.train, []\n"
        "manager.train = lambda *a, **kw: outcomes.append(train(*a, **kw)) or outcomes[-1]\n"
        "report = platform.train_task(dblp_author_affiliation_task(), method='morse')\n"
        "stored = platform.gmlaas.model_store.get(report.model_uri)\n"
        "embeddings = np.ascontiguousarray(stored.entity_embeddings)\n"
        "nc = platform.train_task(dblp_paper_venue_task(), method='graph_saint')\n"
        "classifier = platform.gmlaas.model_store.get(nc.model_uri)\n"
        "weights = hashlib.sha256()\n"
        "for parameter in outcomes[-1].result.model.parameters():\n"
        "    weights.update(np.ascontiguousarray(parameter.data).tobytes())\n"
        "print(json.dumps({'metrics': report.metrics,\n"
        "    'entities': hashlib.sha256('|'.join(stored.entity_names)"
        ".encode()).hexdigest(),\n"
        "    'embeddings': hashlib.sha256(embeddings.tobytes()).hexdigest(),\n"
        "    'nc_metrics': nc.metrics, 'nc_weights': weights.hexdigest(),\n"
        "    'nc_predictions': list(classifier.prediction_map.items())},\n"
        "    sort_keys=True))\n")
    source = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    outputs = []
    for hash_seed in ("1", "2"):
        environment = dict(os.environ, PYTHONHASHSEED=hash_seed,
                           PYTHONPATH=os.path.abspath(source))
        done = subprocess.run([sys.executable, str(script)], env=environment,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert "hits@10" in outputs[0]["metrics"]
    assert outputs[0]["nc_predictions"]
    assert outputs[0] == outputs[1]
