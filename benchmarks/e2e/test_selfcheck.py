"""Self-check of the benchmark of record (collected by the tier-1 command).

Covers what a later PR could break without noticing: the summary function,
seeded op generation, the comparator's verdicts, the agreement between
``BENCHMARK.json`` and the metric catalogue, and -- on a tiny fixture, one
second each -- every workload end to end through the real command line,
traced and untraced result lines included.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import metrics  # noqa: E402
import oplists  # noqa: E402


def test_summary_reports_highest_percentile_with_ten_samples_beyond():
    assert metrics.summarize([]) == {"n": 0, "p50": 0.0, "tail": 0.0, "tail_q": 0.0}
    many = metrics.summarize(range(1, 201))
    assert (many["n"], many["p50"], many["tail"], many["tail_q"]) == (200, 100, 190, 0.95)
    assert metrics.summarize(range(1, 200))["tail_q"] == 0.90      # 199 samples
    some = metrics.summarize(range(1, 101))
    assert (some["tail"], some["tail_q"]) == (90, 0.90)
    few = metrics.summarize([5.0, 1.0, 3.0, 2.0])
    assert (few["p50"], few["tail"], few["tail_q"]) == (2.0, 3.0, 0.75)


def _oplists(seed):
    return [oplists.build_lookup_hot(seed, 100_000),
            oplists.build_query_cold(seed, 100_000),
            oplists.build_sparqlml_infer(seed, 1.0),
            oplists.build_update_mix(seed, 100_000, 2)[0],
            oplists.build_train_pipeline(seed, 0.5)]


def test_op_lists_are_a_pure_function_of_the_seed():
    first, again, other = _oplists(7), _oplists(7), _oplists(8)
    for a, b, c in zip(first, again, other):
        assert a.sha256() == b.sha256(), a.workload
        assert a.sha256() != c.sha256(), a.workload
        assert a.class_mix() == c.class_mix(), a.workload
    cold, cold_other = first[1], other[1]
    assert len({op.text for op in cold.ops}) == len(cold.ops) == 384
    shared = {op.text for op in cold.ops} & {op.text for op in cold_other.ops}
    assert len(shared) < len(cold.ops) // 10      # constants differ, bar chance
    assert all(dict(op.headers).get("Cache-Control") == "no-store"
               for op in cold.ops)
    assert len({op.text for op in first[0].ops}) == 96


def test_update_mix_cycle_is_write_ask_three_reads():
    _hashed, mixes = oplists.build_update_mix(7, 100_000, 2)
    for k in range(8):
        cycle = mixes[1].cycle(k)
        assert [op.route for op in cycle] == ["update"] + ["query"] * 4
        assert cycle[0].cls == ("delete" if k % 4 == 3 else "insert")
        assert cycle[1].expect is (k % 4 != 3)
        assert mixes[1].subject(k if k % 4 != 3 else k - 2) in cycle[1].text
    assert mixes[0].cycle(0)[0].text != mixes[1].cycle(0)[0].text


def _record(**medians):
    values = {name: {"unit": metrics.BY_NAME[name].unit, "values": runs,
                     "median": sorted(runs)[len(runs) // 2]}
              for name, runs in medians.items()}
    return {"git_sha": "synthetic",
            "workloads": {"lookup_hot": {"end_to_end": values, "per_layer": {}}}}


def test_comparator_verdicts_on_synthetic_records():
    bounds = {"ops_per_s": 0.10, "p50_ms": 0.10, "fail_share": 0.0,
              "p95_ms": 0.25, "setup_s": 0.25}
    base = _record(ops_per_s=[100, 101, 99, 100, 102], p50_ms=[1.0] * 5,
                   p95_ms=[2.0, 2.1, 1.9, 2.0, 2.0], fail_share=[0.0] * 5,
                   setup_s=[1.0, 1.0, 1.0, 1.0, 1.0])
    change = _record(ops_per_s=[80, 81, 79, 80, 82], p50_ms=[0.8] * 5,
                     p95_ms=[2.0, 5.0, 1.0, 2.0, 3.0], fail_share=[0.0, 0.01, 0, 0, 0.02],
                     setup_s=[1.1, 1.1, 1.1, 1.1, 1.1])
    rows = {row["metric"]: row for row in
            compare.compare_records(base, change, bounds)}
    assert rows["ops_per_s"]["verdict"] == "regressed"     # higher is better
    assert rows["p50_ms"]["verdict"] == "improved"
    assert rows["p95_ms"]["verdict"] == "unresolved"        # B's spread > bound
    assert rows["fail_share"]["verdict"] == "regressed"     # any rise
    assert rows["setup_s"]["verdict"] == "unchanged"        # +10 % < 25 %
    assert rows["ops_per_s"]["worse_by"] == pytest.approx(0.20)
    text = "\n".join(compare.format_rows(list(rows.values())))
    assert "0.800x" in text and "regressed" in text


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    lists = metrics.benchmark_json_lists()
    assert declared["end_to_end"] == lists["end_to_end"]
    assert declared["per_layer"] == lists["per_layer"]
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(metrics.WORKLOADS)
    assert any(m["name"] == "setup_s" and
               m["bound"] == max(e["bound"] for e in declared["end_to_end"])
               for m in declared["end_to_end"])
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names)) and len(declared["per_layer"]) <= 128


def _result_line(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    for name, cell in result["metrics"].items():
        assert set(cell) == {"value", "unit"}, name
        assert cell["unit"] == metrics.BY_NAME[name].unit
        assert isinstance(cell["value"], float)
    return result


def test_every_workload_runs_on_a_tiny_fixture(tmp_path):
    """One second per workload through the real CLI, all five at once."""
    runs = {}
    for workload in metrics.WORKLOADS:
        detail = tmp_path / f"{workload}.json"
        runs[workload] = (detail, subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", "1", "--profile", "tiny",
             "--detail", str(detail)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT))
    for workload, (detail_path, proc) in runs.items():
        stdout, stderr = proc.communicate(timeout=170)
        assert proc.returncode == 0, f"{workload}: {stderr[-2000:]}"
        traced = _result_line(stdout)
        assert traced["correct"] and traced["failed"] == 0, workload
        assert list(traced["metrics"]) == [m.name for m in metrics.PER_LAYER]
        with open(detail_path, encoding="utf-8") as handle:
            detail = json.load(handle)
        # The untraced line is built from the same detail document.
        import run as e2e_run
        untraced = _result_line(e2e_run.result_line(dict(detail, trace=0)))
        assert list(untraced["metrics"]) == [m.name for m in metrics.END_TO_END]
        assert all(cell["value"] > 0 for cell in untraced["metrics"].values()), workload
        for metric in metrics.PER_LAYER:
            applies = workload in metric.workloads
            value = traced["metrics"][metric.name]["value"]
            assert applies or value == 0.0, (workload, metric.name)
        assert len(detail["notes"]["ops_sha256"]) == 64
        assert detail["spans"] and set(detail["spans"][0]) == {
            "name", "start", "end", "parent", "op_id"}
