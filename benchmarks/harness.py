"""Shared harness for the paper-reproduction benchmarks.

Each ``bench_*`` module reproduces one table or figure of the paper.  The
harness provides:

* :func:`run_training_comparison` — trains one GML method twice (traditional
  pipeline on the full KG vs. KGNet pipeline on the meta-sampled ``KG'``) and
  returns the accuracy / time / memory rows of paper Figs 13-15,
* :func:`save_report` — writes the paper-style text table both to stdout and
  to ``benchmarks/results/<name>.txt`` so the regenerated numbers are kept
  next to the code,
* small helpers shared by the ablation benchmarks.

Scale: the generated KGs default to ``scale=0.4`` of the laptop-scale presets
(override with the ``KGNET_BENCH_SCALE`` environment variable).  The paper's
absolute numbers come from 252M-400M triple KGs on a 256 GB server; only the
relative shape (who wins, by roughly what factor) is expected to match.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.datasets import DBLPConfig, YAGOConfig, generate_dblp_kg, generate_yago_kg
from repro.gml.tasks import TaskSpec
from repro.kgnet import KGNet, MetaSamplingConfig, TrainingManagerConfig
from repro.rdf import Graph
from repro.rdf.stats import format_table

__all__ = [
    "bench_scale",
    "bench_training_config",
    "build_dblp_graph",
    "build_yago_graph",
    "make_platform",
    "run_training_comparison",
    "save_report",
]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def bench_scale() -> float:
    """Scale factor for generated benchmark KGs (env: KGNET_BENCH_SCALE)."""
    return float(os.environ.get("KGNET_BENCH_SCALE", "0.4"))


def bench_training_config() -> TrainingManagerConfig:
    """Training settings used by every benchmark (kept small but meaningful)."""
    return TrainingManagerConfig(
        feature_dim=24, hidden_dim=24, embedding_dim=24,
        epochs_full_batch=25, epochs_sampling=12, epochs_kge=12,
        learning_rate=0.03, seed=0)


def build_dblp_graph(scale: Optional[float] = None) -> Graph:
    return generate_dblp_kg(DBLPConfig(scale=scale or bench_scale(), seed=7))


def build_yago_graph(scale: Optional[float] = None) -> Graph:
    return generate_yago_kg(YAGOConfig(scale=scale or bench_scale(), seed=7))


def make_platform(graph: Graph) -> KGNet:
    platform = KGNet(training_config=bench_training_config())
    platform.load_graph(graph)
    return platform


def run_training_comparison(platform: KGNet, task: TaskSpec, method: str,
                            meta_sampling: str,
                            metric_key: str = "accuracy") -> List[Dict[str, object]]:
    """Train ``method`` on the full KG and on KG'; return two report rows.

    This is exactly the comparison of paper Figs 13, 14 and 15: the
    "traditional pipeline" row uses the whole KG, the "KGNet (KG')" row uses
    the task-specific subgraph extracted by meta-sampling.
    """
    rows: List[Dict[str, object]] = []
    for setting, use_meta in (("full KG", False), ("KGNET (KG')", True)):
        report = platform.train_task(
            task, method=method,
            meta_sampling=MetaSamplingConfig.from_label(meta_sampling) if use_meta else None,
            use_meta_sampling=use_meta)
        metric_value = report.metrics.get(metric_key, 0.0)
        rows.append({
            "method": method,
            "pipeline": setting,
            metric_key: round(float(metric_value) * 100, 1),
            "time_s": round(report.training["elapsed_seconds"], 2),
            "memory_mb": round(report.training["peak_memory_bytes"] / 1e6, 1),
            "triples": (report.meta_sampling.get("num_subgraph_triples")
                        if use_meta else len(platform.graph)),
        })
    return rows


def reduction(rows: List[Dict[str, object]], key: str) -> float:
    """Relative reduction of ``key`` achieved by KG' over the full KG."""
    full = [r[key] for r in rows if r["pipeline"] == "full KG"]
    sampled = [r[key] for r in rows if r["pipeline"] != "full KG"]
    if not full or not sampled or not full[0]:
        return 0.0
    return 1.0 - float(sampled[0]) / float(full[0])


def save_report(name: str, title: str, rows: Sequence[Dict[str, object]],
                headers: Optional[List[str]] = None,
                notes: Optional[List[str]] = None) -> str:
    """Render, print and persist a paper-style table; returns the text."""
    table = format_table(list(rows), headers=headers, title=title)
    if notes:
        table += "\n" + "\n".join(f"  * {note}" for note in notes)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    print("\n" + table)
    return table
