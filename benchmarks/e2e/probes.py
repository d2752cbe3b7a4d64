"""Onion probes: the traced run's per-layer numbers, timed from outside.

The same op is executed at successively deeper public entry points of one
in-process platform (the twin of the server's fixture); every call is a span
``{name, start, end, parent, op_id}``.  A layer's self time is its shell
minus the next inner shell, taken per op.  Two rules keep the subtraction
honest:

* a shell that short-circuits (``X-KGNet-Result-Cache: hit``) ends the op's
  path -- deeper layers get zero for that op;
* before each shell the probe restores the cache state the timed run would
  have seen: ``cold`` clears plan and result cache (and the op carries
  ``no-store``), ``hot`` runs against warmed caches, ``epoch`` applies a
  fresh write first, as every ``update_mix`` read follows one.

Nothing inside ``src/`` is instrumented; spans inside the program are a later
change (ROADMAP direction 2).
"""

from __future__ import annotations

import http.client
import itertools
import os
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import KGNet, RemoteClient, StorageEngine, serve
from repro.gml.transform import RDFGraphTransformer
from repro.kgnet.api.envelopes import APIRequest
from repro.kgnet.meta_sampler import MetaSampler, MetaSamplingConfig
from repro.rdf.terms import IRI
from repro.server.service import ServiceHandler, ServiceRequest
from repro.sparql import parse
from repro.sparql.execution import StreamingResult
from repro.sparql.results.serialize import MEDIA_JSON, serialize_result

import oplists
from fixtures import build_platform
from oplists import Op
from wire import OUT_DIR

#: Ops of the list replayed through the shells (a fixed prefix per class).
SHELL_OPS_PER_CLASS = 8
#: Each shell is timed this often per op; the fastest run counts.
SHELL_REPEATS = 2


class Spans:
    """In-memory span log; ``run.py`` writes it out once, when the run ends."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, object]] = []

    def timed(self, name: str, parent: Optional[str], op_id: str,
              call: Callable[[], object]) -> Tuple[object, float]:
        start = time.perf_counter()
        value = call()
        end = time.perf_counter()
        self.rows.append({"name": name, "start": start, "end": end,
                          "parent": parent, "op_id": op_id})
        return value, end - start


def _median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def _fastest(spans: Spans, name: str, parent: Optional[str], op_id: str,
             restore: Callable[[], None], call: Callable[[], object],
             ) -> Tuple[object, float]:
    best = None
    for _ in range(SHELL_REPEATS):
        restore()
        value, seconds = spans.timed(name, parent, op_id, call)
        if best is None or seconds < best[1]:
            best = (value, seconds)
    return best


def _prefix(ops: Sequence[Op], per_class: int = SHELL_OPS_PER_CLASS) -> List[Op]:
    taken: Dict[str, int] = {}
    chosen = []
    for op in ops:
        if taken.get(op.cls, 0) < per_class:
            taken[op.cls] = taken.get(op.cls, 0) + 1
            chosen.append(op)
    return chosen


class InProcessServer:
    """The twin behind a real ``serve()``: the outermost two shells."""

    def __init__(self, twin: KGNet) -> None:
        self.server = serve(twin.api)
        self.client = RemoteClient(self.server.base_url)
        host, port = self.server.server_address[:2]
        self.raw = http.client.HTTPConnection(host, port, timeout=60.0)

    def round_trip(self, op: Op) -> Tuple[int, bytes]:
        self.raw.request(op.method, op.target, body=op.body or None,
                         headers=dict(op.headers))
        response = self.raw.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.raw.close()
        self.client.close()
        self.server.stop()


def _cache_counts(twin: KGNet) -> Dict[str, int]:
    result, plan = twin.endpoint.result_cache.stats(), twin.endpoint.cache_info()
    return {"r_hits": result["hits"], "r_misses": result["misses"],
            "r_inval": result["invalidations"], "p_hits": plan["hits"],
            "p_misses": plan["misses"], "p_inval": plan["invalidations"]}


def _hit_shares(before: Dict[str, int], after: Dict[str, int]) -> Tuple[float, float]:
    d = {k: after[k] - before[k] for k in before}
    result_lookups = d["r_hits"] + d["r_misses"] + d["r_inval"]
    plan_lookups = d["p_hits"] + d["p_misses"] + d["p_inval"]
    return (d["r_hits"] / result_lookups if result_lookups else 0.0,
            d["p_hits"] / plan_lookups if plan_lookups else 0.0)


def _replay(handler: ServiceHandler, ops: Sequence[Op], no_store: bool = False) -> None:
    for op in ops:
        headers = dict(op.headers)
        if no_store:
            headers["Cache-Control"] = "no-store"
        handler.handle(ServiceRequest(op.method, op.target, headers,
                                      op.body)).read_body()


# ---------------------------------------------------------------------------
# SPARQL protocol workloads
# ---------------------------------------------------------------------------

def probe_sparql(twin: KGNet, ops: Sequence[Op], mode: str, spans: Spans,
                 workload: str, bump: Optional[Callable[[], None]] = None,
                 ) -> Dict[str, float]:
    """Shell timings of SELECT ``ops`` in cache state ``mode``."""
    endpoint = twin.endpoint
    handler = ServiceHandler(twin.api)
    served = InProcessServer(twin)

    def restore() -> None:
        if mode == "cold":
            endpoint.plan_cache.clear()
            endpoint.result_cache.clear()
        elif mode == "epoch":
            bump()

    layers: Dict[str, List[float]] = {name: [] for name in (
        "server.client", "server.http", "server.service", "kgnet.api",
        "sparql.parser", "sparql.optimizer", "sparql.evaluator", "sparql.results")}
    wire_total = sparql_total = 0.0
    lookups = rows = result_bytes = 0
    try:
        for index, op in enumerate(ops):
            op_id = f"{workload}:{index}"
            headers = dict(op.headers)
            if mode == "hot":            # warm every entry point's cache key
                served.client.protocol_select(op.text, extra_headers=headers)
                served.round_trip(op)
            _, client = _fastest(spans, "server.client", None, op_id, restore,
                                 lambda: served.client.protocol_select(
                                     op.text, extra_headers=headers))
            _, wire = _fastest(spans, "server.http", "server.client", op_id,
                               restore, lambda: served.round_trip(op))
            response, service = _fastest(
                spans, "server.service", "server.http", op_id, restore,
                lambda: _handled(handler, op))
            self_times = {"server.client": client - wire,
                          "server.http": wire - service}
            if response.header("X-KGNet-Result-Cache") == "hit":
                self_times["server.service"] = service
            else:
                _, api = _fastest(spans, "kgnet.api", "server.service", op_id,
                                  restore, lambda: _dispatched(twin, op))
                result, query = _fastest(spans, "sparql.endpoint", "kgnet.api",
                                         op_id, restore,
                                         lambda: endpoint.query(op.text))
                stats = endpoint.thread_statistics()
                _, explain = _fastest(spans, "sparql.explain", "sparql.endpoint",
                                      op_id, restore,
                                      lambda: endpoint.explain(op.text))
                _, parsed = spans.timed(
                    "sparql.parser", "sparql.explain", op_id,
                    lambda: parse(op.text, namespaces=endpoint.namespaces))
                body, serialized = spans.timed(
                    "sparql.results", "server.service", op_id,
                    lambda: b"".join(serialize_result(result, MEDIA_JSON)))
                self_times.update({
                    "server.service": service - api - serialized,
                    "kgnet.api": api - query,
                    "sparql.evaluator": query - explain,
                    "sparql.optimizer": explain - parsed,
                    "sparql.parser": parsed,
                    "sparql.results": serialized})
                lookups += stats.pattern_lookups
                rows += len(result) if hasattr(result, "__len__") else 1
                result_bytes += len(body)
            for name, samples in layers.items():
                samples.append(max(0.0, self_times.get(name, 0.0)))
            wire_total += wire
            sparql_total += sum(max(0.0, self_times.get(name, 0.0))
                                for name in layers if name.startswith("sparql."))
    finally:
        served.close()
    values = {f"{name}.ms": _median_ms(samples) for name, samples in layers.items()}
    values["sparql.layers_share_of_wire"] = sparql_total / wire_total if wire_total else 0.0
    values["sparql.evaluator.lookups_per_row"] = lookups / rows if rows else 0.0
    values["sparql.results.bytes_per_row"] = result_bytes / rows if rows else 0.0
    return values


def _handled(handler: ServiceHandler, op: Op):
    response = handler.handle(ServiceRequest(op.method, op.target,
                                             dict(op.headers), op.body))
    response.read_body()
    return response


def _dispatched(twin: KGNet, op: Op):
    """The router shell: dispatch, then drain what the service would drain."""
    if op.route == "query":
        response = twin.api.dispatch(APIRequest(op="sparql", params={
            "query": op.text, "require": "query", "stream": True}))
        if isinstance(response.attachment, StreamingResult):
            response.attachment.materialize()
        return response
    op_name = op.target.rsplit("/", 1)[1]
    response = twin.api.dispatch(APIRequest(
        op=op_name, params={"query": op.text, **dict(op.params)}))
    response.to_dict()
    return response


def trace_overhead(twin: KGNet, ops: Sequence[Op]) -> float:
    """Traced per-op time / untraced, minus 1, at the service shell (warmed)."""
    handler = ServiceHandler(twin.api)
    for op in ops:
        _handled(handler, op)
    plain: List[float] = []
    traced: List[float] = []
    for _ in range(5):
        start = time.perf_counter()
        for op in ops:
            _handled(handler, op)
        plain.append(time.perf_counter() - start)
        scratch = Spans()
        start = time.perf_counter()
        for index, op in enumerate(ops):
            scratch.timed("server.service", "server.http", str(index),
                          lambda: _handled(handler, op))
        traced.append(time.perf_counter() - start)
    return statistics.median(traced) / statistics.median(plain) - 1.0


def probe_lookup_hot(workload, twin: KGNet, spans: Spans) -> Dict[str, float]:
    ops = workload.oplist.ops
    values = probe_sparql(twin, _prefix(ops), "hot", spans, workload.name)
    handler = ServiceHandler(twin.api)
    replayed = [ops[i] for i in workload.oplist.sequence[:512]]
    _replay(handler, ops)                                   # warm-up pass
    before = _cache_counts(twin)
    _replay(handler, replayed)
    values["sparql.endpoint.result_cache_hit_share"], _ = _hit_shares(
        before, _cache_counts(twin))
    # Behind a result-cache hit the plan cache is never consulted; its share
    # is what it serves for the same sequence once the result cache is bypassed.
    _replay(handler, ops, no_store=True)
    before = _cache_counts(twin)
    _replay(handler, replayed, no_store=True)
    _, values["sparql.endpoint.plan_cache_hit_share"] = _hit_shares(
        before, _cache_counts(twin))
    values["trace.overhead_share"] = trace_overhead(twin, ops)
    return values


def probe_query_cold(workload, twin: KGNet, spans: Spans) -> Dict[str, float]:
    oplist = workload.oplist
    values = probe_sparql(twin, _prefix(oplist.ops), "cold", spans, workload.name)
    # One full cycle plus the start of the next, in the order the timed run
    # sends them: texts come round again only after both caches turned over.
    order = [oplist.ops[i] for i in oplist.sequence]
    twin.endpoint.plan_cache.clear()
    twin.endpoint.result_cache.clear()
    before = _cache_counts(twin)
    _replay(ServiceHandler(twin.api), order + order[:64])
    (values["sparql.endpoint.result_cache_hit_share"],
     values["sparql.endpoint.plan_cache_hit_share"]) = _hit_shares(
        before, _cache_counts(twin))
    return values


# ---------------------------------------------------------------------------
# update_mix
# ---------------------------------------------------------------------------

UPDATE_PROBE_WRITES = 200
UPDATE_PROBE_CYCLES = 40


#: Every write of the mix inserts or deletes this many triples.
TRIPLES_PER_WRITE = 2


def _write_texts(workload, first: int, count: int) -> List[str]:
    """The update texts of ``count`` writes nobody sent yet."""
    return [workload.mixes[0].cycle(k)[0].text
            for k in range(first, first + count)]


def probe_update_mix(workload, twin: KGNet, spans: Spans) -> Dict[str, float]:
    mix = workload.mixes[0]
    counter = itertools.count(10_000_000, 4)      # insert cycles only

    def bump() -> None:
        twin.endpoint.update(mix.cycle(next(counter))[0].text)

    values = probe_sparql(twin, _prefix(mix.reads), "epoch", spans,
                          workload.name, bump=bump)

    handler = ServiceHandler(twin.api)
    _replay(handler, mix.reads)
    before = _cache_counts(twin)
    invalidations = twin.endpoint.result_cache.stats()["invalidations"]
    for k in range(20_000_000, 20_000_000 + UPDATE_PROBE_CYCLES):
        _replay(handler, mix.cycle(k))
    (values["sparql.endpoint.result_cache_hit_share"],
     values["sparql.endpoint.plan_cache_hit_share"]) = _hit_shares(
        before, _cache_counts(twin))
    values["sparql.endpoint.result_cache_invalidations"] = float(
        twin.endpoint.result_cache.stats()["invalidations"] - invalidations)

    writes = _write_texts(workload, 30_000_000, UPDATE_PROBE_WRITES)
    in_memory = [spans.timed("rdf.graph.update", None, f"update_mix:w{i}",
                             lambda: twin.endpoint.update(text))[1]
                 for i, text in enumerate(writes)]
    values["rdf.graph.update_ms"] = _median_ms(in_memory)

    os.makedirs(OUT_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="store-probe-", dir=OUT_DIR)
    try:
        durable, info = build_platform(workload.spec, directory)
        checkpoint = info["checkpoint"]
        values["storage.checkpoint.write_s"] = float(checkpoint["seconds"])
        values["storage.checkpoint.bytes_per_triple"] = \
            checkpoint["bytes"] / max(1, checkpoint["triples"])
        wal_before = durable.storage.stats()["wal"]
        on_disk = [spans.timed("storage.wal.commit", "rdf.graph.update",
                               f"update_mix:w{i}",
                               lambda: durable.endpoint.update(text))[1]
                   for i, text in enumerate(writes)]
        wal_after = durable.storage.stats()["wal"]
        values["storage.wal.commit_ms"] = max(
            0.0, _median_ms(on_disk) - values["rdf.graph.update_ms"])
        values["storage.wal.commits"] = float(
            wal_after["commits"] - wal_before["commits"])
        values["storage.wal.bytes_per_triple"] = (
            wal_after["bytes_written"] - wal_before["bytes_written"]
        ) / (TRIPLES_PER_WRITE * len(writes))

        durable.storage.checkpoint()
        durable.storage.close()
        restored = StorageEngine(directory)
        _, values["storage.checkpoint.restore_s"] = spans.timed(
            "storage.checkpoint.restore", None, "update_mix:restore",
            restored.open)
        restored.close()

        # Replay alone: a directory that holds a log and no checkpoint.
        log_only = StorageEngine(os.path.join(directory, "log-only"))
        journalled = KGNet(storage=log_only)
        for text in writes:
            journalled.endpoint.update(text)
        log_only.close()
        replayed = StorageEngine(log_only.directory)
        _, replay = spans.timed("storage.wal.replay", None, "update_mix:replay",
                                replayed.open)
        values["storage.wal.replay_tps"] = replayed.recovered_transactions / replay
        replayed.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return values


# ---------------------------------------------------------------------------
# sparqlml_infer
# ---------------------------------------------------------------------------

def _direct_inference(twin: KGNet, report, predicates) -> None:
    """The GMLaaS calls the query's plan makes, on the same inputs."""
    model_uri = report.models[-1].uri.value
    predicate = predicates[-1]
    subjects = [row[predicate.subject_variable.name]
                for row in report.results.to_python()]
    if predicate.top_k is not None:
        for subject in subjects:
            twin.gmlaas.infer_links(model_uri, subject, k=predicate.top_k)
    elif report.plans[-1].plan == "dictionary":
        twin.gmlaas.infer_node_class_dictionary(model_uri)
    else:
        for subject in subjects:
            twin.gmlaas.infer_node_class(model_uri, subject)


def probe_sparqlml_infer(workload, twin: KGNet, spans: Spans) -> Dict[str, float]:
    handler = ServiceHandler(twin.api)
    served = InProcessServer(twin)
    service = twin.sparqlml
    none = lambda: None                                      # noqa: E731
    layers: Dict[str, List[float]] = {}
    calls = dictionary = 0
    ops = _prefix(workload.oplist.ops, per_class=4)
    try:
        for index, op in enumerate(ops):
            op_id = f"{workload.name}:{index}"
            params = dict(op.params)
            _, client = _fastest(spans, "server.client", None, op_id, none,
                                 lambda: served.client.query(op.text, **params))
            _, wire = _fastest(spans, "server.http", "server.client", op_id,
                               none, lambda: served.round_trip(op))
            _, handled = _fastest(spans, "server.service", "server.http", op_id,
                                  none, lambda: _handled(handler, op))
            _, api = _fastest(spans, "kgnet.api", "server.service", op_id, none,
                              lambda: _dispatched(twin, op))
            report, select = _fastest(
                spans, "kgnet.sparqlml.execute_select", "kgnet.api", op_id, none,
                lambda: service.execute_select(op.text, **params))
            (_query, predicates), parsed = spans.timed(
                "kgnet.sparqlml.parse", "kgnet.sparqlml.execute_select", op_id,
                lambda: service.parser.parse_select(op.text))
            _, found = spans.timed(
                "kgnet.kgmeta.find_models", "kgnet.sparqlml.execute_select", op_id,
                lambda: [twin.governor.find_models(p.model_class, p.constraints)
                         for p in predicates])
            _, inferred = spans.timed(
                "kgnet.gmlaas.infer", "kgnet.sparqlml.execute_select", op_id,
                lambda: _direct_inference(twin, report, predicates))
            for name, seconds in (
                    ("server.client.ms", client - wire),
                    ("server.http.ms", wire - handled),
                    ("server.service.ms", handled - api),
                    ("kgnet.api.ms", api - select),
                    ("kgnet.sparqlml.parse_ms", parsed),
                    ("kgnet.kgmeta.find_models_ms", found),
                    ("kgnet.gmlaas.infer_ms", inferred),
                    ("kgnet.sparqlml.self_ms", select - parsed - found - inferred)):
                layers.setdefault(name, []).append(max(0.0, seconds))
            calls += report.http_calls
            dictionary += report.plans[-1].plan == "dictionary"
    finally:
        served.close()
    values = {name: _median_ms(samples) for name, samples in layers.items()}
    values["kgnet.gmlaas.calls_per_query"] = calls / len(ops)
    values["kgnet.sparqlml.dictionary_plan_share"] = dictionary / len(ops)
    return values


# ---------------------------------------------------------------------------
# train_pipeline
# ---------------------------------------------------------------------------

def probe_train_pipeline(workload, twin: KGNet, spans: Spans) -> Dict[str, float]:
    """T1-T4 once, in process, split into extract / transform / train."""
    config = twin.gmlaas.training_manager.config
    graph = twin.endpoint.graph
    per_task: Dict[str, Dict[str, float]] = {}
    for label, task_text, method, full_kg in oplists.TRAIN_TASKS:
        op_id = f"{workload.name}:{label}"
        request = twin.sparqlml.parser.parse_train(
            oplists.train_text(f"probe_{label}", task_text, method))
        task = request.task
        training_graph, extract, reduction = graph, 0.0, 0.0
        if not full_kg:
            (training_graph, report), extract = spans.timed(
                "kgnet.meta_sampler.extract", None, op_id,
                lambda: MetaSampler().extract(
                    graph, task, MetaSamplingConfig.default_for_task(task.task_type)))
            reduction = report.triple_reduction
        transformer = RDFGraphTransformer(
            feature_dim=config.feature_dim,
            split_strategy=config.split_strategy, seed=config.seed)
        if task.target_node_type is not None:
            transform_call = lambda: transformer.to_node_classification_data(  # noqa: E731
                training_graph, task.target_node_type, task.label_predicate)
        else:
            transform_call = lambda: transformer.to_link_prediction_data(  # noqa: E731
                training_graph, task.target_predicate)
        response, total = spans.timed(
            "kgnet.gmlaas.train", None, op_id,
            lambda: twin.gmlaas.train(
                training_graph, task, IRI(f"https://www.kgnet.com/model/probe/{label}"),
                budget=request.budget, method=method))
        _, transform = spans.timed("gml.transform", "kgnet.gmlaas.train", op_id,
                                   transform_call)
        per_task[label] = {"extract": extract, "reduction": reduction,
                           "transform": transform, "total": total,
                           "train": max(0.0, total - transform),
                           "peak": float(response.peak_memory_bytes)}
    prime = [per_task[label] for label in ("T1", "T2", "T3")]
    t2, t4 = per_task["T2"], per_task["T4"]
    return {
        "kgnet.meta_sampler.extract_s": sum(t["extract"] for t in prime),
        "kgnet.meta_sampler.triple_reduction":
            statistics.mean(t["reduction"] for t in prime),
        "gml.transform_s": sum(t["transform"] for t in prime),
        "gml.train_s": sum(t["train"] for t in prime),
        "gml.train_peak_mb": max(t["peak"] for t in prime) / 1e6,
        "gml.full_kg_train_s": t4["total"],
        "train.full_over_kgprime_time_x": t4["total"] / max(t2["total"], 1e-9),
        "train.full_over_kgprime_mem_x": t4["peak"] / max(t2["peak"], 1.0),
    }


PROBES = {"lookup_hot": probe_lookup_hot, "query_cold": probe_query_cold,
          "update_mix": probe_update_mix, "sparqlml_infer": probe_sparqlml_infer,
          "train_pipeline": probe_train_pipeline}


def run_probes(workload, twin: KGNet, twin_info: Dict[str, object],
               spans: Spans) -> Dict[str, float]:
    values = PROBES[workload.name](workload, twin, spans)
    if twin_info.get("generate_s"):
        values["datasets.generate_tps"] = \
            twin_info["generated_triples"] / twin_info["generate_s"]
        values["rdf.graph.load_tps"] = twin_info["triples"] / twin_info["load_s"]
    return values
