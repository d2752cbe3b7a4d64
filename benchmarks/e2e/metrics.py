"""Metric catalogue and the one summary function of the benchmark of record.

Every number the benchmark prints is declared here once, with its unit, the
direction that counts as better and -- for the end-to-end metrics -- the
share of the parent's median by which it may worsen.  ``BENCHMARK.json`` is
the driver-facing copy of :data:`END_TO_END` and :data:`PER_LAYER`
(``test_selfcheck.py`` asserts the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

WORKLOADS: Tuple[str, ...] = ("lookup_hot", "query_cold", "sparqlml_infer",
                              "update_mix", "train_pipeline")

COLD_CLASSES = ("join", "star", "agg", "optional", "path", "wide")
INFER_CLASSES = ("nc_all", "nc_filtered", "lp_topk", "nc_join")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "lower" | "higher"
    #: Worsening bound as a share of the parent's median; None = not gated.
    bound: Optional[float] = None
    #: Workloads on which the metric is defined (others report 0).
    workloads: Tuple[str, ...] = WORKLOADS
    #: ``model_score`` is compared by absolute difference, not by ratio.
    absolute: bool = False


#: Gated by the driver: defined on every workload and never 0.  One bound per
#: metric covers all five workloads, so the noisiest one sets it: on the
#: shared 2-vCPU sandbox identical runs differ by 8-16 % (quartile distance
#: over median) in throughput and latency, whatever the benchmark does
#: (README, "Run-to-run spread"), and a bound inside the noise would reject
#: unchanged code.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("p50_ms", "ms", "lower", 0.25),
    Metric("server_peak_rss_mb", "MB", "lower", 0.20),
)

#: End-to-end metrics the driver does not gate.  ``p95_ms`` was demoted: its
#: spread reached 23 % of its median, which no admissible bound (<= 0.25)
#: holds.  The others exist on some workloads only, and the driver's contract
#: wants every gated metric on every workload.  All ride in the per-layer
#: list of ``BENCHMARK.json``; ``compare.py`` holds them to the bounds below.
WIRE_ONLY: Tuple[Metric, ...] = (
    Metric("p95_ms", "ms", "lower", 0.25),
    Metric("write_p50_ms", "ms", "lower", 0.25, ("update_mix",)),
    Metric("write_p95_ms", "ms", "lower", 0.25, ("update_mix",)),
    Metric("recover_s", "s", "lower", 0.25, ("update_mix",)),
    Metric("train_s", "s", "lower", 0.25, ("train_pipeline",)),
    Metric("train_peak_mb", "MB", "lower", 0.10, ("train_pipeline",)),
    Metric("model_score", "ratio", "higher", 0.02, ("train_pipeline",),
           absolute=True),
    Metric("fail_share", "ratio", "lower", 0.0),
) + tuple(
    Metric(f"class.{name}.p50_ms", "ms", "lower", None, ("query_cold",))
    for name in COLD_CLASSES
) + tuple(
    Metric(f"class.{name}.p50_ms", "ms", "lower", None, ("sparqlml_infer",))
    for name in INFER_CLASSES
)

_SPARQL = ("lookup_hot", "query_cold", "update_mix")
_WIRED = _SPARQL + ("sparqlml_infer",)

#: Onion-probe metrics of the traced run; layer names are module names.
LAYERS: Tuple[Metric, ...] = (
    Metric("server.client.ms", "ms", "lower", None, _WIRED),
    Metric("server.http.ms", "ms", "lower", None, _WIRED),
    Metric("server.service.ms", "ms", "lower", None, _WIRED),
    Metric("kgnet.api.ms", "ms", "lower", None, _WIRED),
    Metric("sparql.endpoint.result_cache_hit_share", "ratio", "higher", None, _SPARQL),
    Metric("sparql.endpoint.plan_cache_hit_share", "ratio", "higher", None, _SPARQL),
    Metric("sparql.endpoint.result_cache_invalidations", "count", "lower", None, ("update_mix",)),
    Metric("rdf.graph.update_ms", "ms", "lower", None, ("update_mix",)),
    Metric("sparql.parser.ms", "ms", "lower", None, _SPARQL),
    Metric("sparql.optimizer.ms", "ms", "lower", None, _SPARQL),
    Metric("sparql.evaluator.ms", "ms", "lower", None, _SPARQL),
    Metric("sparql.results.ms", "ms", "lower", None, _SPARQL),
    Metric("sparql.layers_share_of_wire", "ratio", "lower", None, _SPARQL),
    Metric("sparql.evaluator.lookups_per_row", "count", "lower", None, _SPARQL),
    Metric("sparql.results.bytes_per_row", "count", "lower", None, _SPARQL),
    Metric("kgnet.sparqlml.parse_ms", "ms", "lower", None, ("sparqlml_infer",)),
    Metric("kgnet.kgmeta.find_models_ms", "ms", "lower", None, ("sparqlml_infer",)),
    Metric("kgnet.sparqlml.self_ms", "ms", "lower", None, ("sparqlml_infer",)),
    Metric("kgnet.gmlaas.infer_ms", "ms", "lower", None, ("sparqlml_infer",)),
    Metric("kgnet.gmlaas.calls_per_query", "count", "lower", None, ("sparqlml_infer",)),
    Metric("kgnet.sparqlml.dictionary_plan_share", "ratio", "higher", None, ("sparqlml_infer",)),
    Metric("storage.wal.commit_ms", "ms", "lower", None, ("update_mix",)),
    Metric("storage.wal.bytes_per_triple", "count", "lower", None, ("update_mix",)),
    Metric("storage.wal.commits", "count", "lower", None, ("update_mix",)),
    Metric("storage.checkpoint.write_s", "s", "lower", None, ("update_mix",)),
    Metric("storage.checkpoint.restore_s", "s", "lower", None, ("update_mix",)),
    Metric("storage.checkpoint.bytes_per_triple", "count", "lower", None, ("update_mix",)),
    Metric("storage.wal.replay_tps", "1/s", "higher", None, ("update_mix",)),
    Metric("datasets.generate_tps", "1/s", "higher"),
    Metric("rdf.graph.load_tps", "1/s", "higher"),
    Metric("kgnet.meta_sampler.extract_s", "s", "lower", None, ("train_pipeline",)),
    Metric("kgnet.meta_sampler.triple_reduction", "ratio", "higher", None, ("train_pipeline",)),
    Metric("gml.transform_s", "s", "lower", None, ("train_pipeline",)),
    Metric("gml.train_s", "s", "lower", None, ("train_pipeline",)),
    Metric("gml.train_peak_mb", "MB", "lower", None, ("train_pipeline",)),
    Metric("gml.full_kg_train_s", "s", "lower", None, ("train_pipeline",)),
    Metric("train.full_over_kgprime_time_x", "ratio", "higher", None, ("train_pipeline",)),
    Metric("train.full_over_kgprime_mem_x", "ratio", "higher", None, ("train_pipeline",)),
    Metric("trace.overhead_share", "ratio", "lower", None, ("lookup_hot",)),
)

PER_LAYER: Tuple[Metric, ...] = WIRE_ONLY + LAYERS
BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def percentile(ordered: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    rank = -(-quantile * len(ordered) // 1)          # ceil
    return ordered[int(min(len(ordered), max(rank, 1))) - 1]


def summarize(samples: Iterable[float]) -> Dict[str, float]:
    """Median, the highest percentile with ten samples beyond it, and n.

    ``tail_q`` is the quantile ``tail`` was taken at: 0.95 from 200 samples,
    0.90 from 100, else 0.75 -- below 40 samples nothing has ten beyond it,
    and the upper quartile repeats where the maximum does not.  No p99: the
    windows of this benchmark cannot support one on a shared 2-core box.
    """
    ordered = sorted(samples)
    if not ordered:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_q": 0.0}
    tail_q = next((q for q in (0.95, 0.90)
                   if len(ordered) * (1.0 - q) >= 10.0 - 1e-9), 0.75)
    return {"n": len(ordered), "p50": percentile(ordered, 0.50),
            "tail": percentile(ordered, tail_q), "tail_q": tail_q}


def emit(metrics: Sequence[Metric], values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the result line: every metric, 0 if absent."""
    return {m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit}
            for m in metrics}


def benchmark_json_lists() -> Dict[str, List[Dict[str, object]]]:
    """The ``end_to_end`` / ``per_layer`` lists ``BENCHMARK.json`` must hold."""
    return {
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
