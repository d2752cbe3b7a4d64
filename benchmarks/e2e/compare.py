"""Compare two records of ``run.py --all``: one row per (metric, workload).

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit), B the change.  Every end-to-end metric is
judged against its bound -- the one in ``BENCHMARK.json`` where the driver
gates it, else the one in ``metrics.py``:

* ``unresolved``  the run-to-run spread of either side (distance between its
  quartiles over its median) is wider than the bound, so the runs cannot tell;
* ``regressed``   B's median is worse than A's by more than the bound
  (``fail_share``: any rise of the worst run; ``model_score``: more than
  0.02 absolute);
* ``improved``    B's median is better by more than the bound (which, both
  spreads being within it, is also more than A's own spread);
* ``unchanged``   otherwise.

Every ratio is printed with its base.  Per-layer metrics follow without a
verdict: they say where a change landed, they do not gate it.  The exit code
is 1 when any row is regressed or unresolved.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance over the median; None below four runs."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def load_bounds(path: str = BENCHMARK_JSON) -> Dict[str, float]:
    bounds = {m.name: m.bound for m in metrics.END_TO_END + metrics.WIRE_ONLY
              if m.bound is not None}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            for entry in json.load(handle)["end_to_end"]:
                bounds[entry["name"]] = entry["bound"]
    return bounds


def verdict(metric: metrics.Metric, bound: float, base: Sequence[float],
            change: Sequence[float]) -> Tuple[str, float]:
    """(verdict, how much worse B is: a share of A's median, or absolute)."""
    if metric.name == "fail_share":
        # Any rise: one failing run is a failure, so the worst runs compare.
        worse = max(change) - max(base)
        return ("regressed" if worse > 0 else
                "improved" if worse < 0 else "unchanged"), worse
    a, b = statistics.median(base), statistics.median(change)
    worse = b - a if metric.better == "lower" else a - b
    if not metric.absolute:
        worse = worse / abs(a) if a else 0.0
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    if not metric.absolute and spreads and max(spreads) > bound:
        return "unresolved", worse
    # Past this line A's own spread is within the bound, so "better by more
    # than the bound" is also "better by more than A's spread".
    return ("regressed" if worse > bound else
            "improved" if -worse > bound else "unchanged"), worse


def compare_records(base: Dict[str, object], change: Dict[str, object],
                    bounds: Dict[str, float]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for workload in metrics.WORKLOADS:
        a_run = base["workloads"].get(workload)
        b_run = change["workloads"].get(workload)
        if a_run is None or b_run is None:
            continue
        for metric in metrics.END_TO_END + metrics.WIRE_ONLY:
            a = a_run["end_to_end"].get(metric.name)
            b = b_run["end_to_end"].get(metric.name)
            if a is None or b is None or metric.name not in bounds:
                continue
            result, worse = verdict(metric, bounds[metric.name],
                                    a["values"], b["values"])
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "base": a["median"], "base_runs": len(a["values"]),
                "change": b["median"], "change_runs": len(b["values"]),
                "base_spread": spread(a["values"]),
                "change_spread": spread(b["values"]),
                "bound": bounds[metric.name], "worse_by": worse,
                "verdict": result})
        for name, a in sorted(a_run["per_layer"].items()):
            b = b_run["per_layer"].get(name)
            if b is not None and (a["value"] or b["value"]):
                rows.append({"workload": workload, "metric": name,
                             "unit": a["unit"], "base": a["value"],
                             "change": b["value"], "verdict": "-"})
    return rows


def _share(value: Optional[float]) -> str:
    return "    n/a" if value is None else f"{value:7.1%}"


def format_rows(rows: Sequence[Dict[str, object]]) -> List[str]:
    lines = [f"{'workload':15s} {'metric':46s} {'A (base)':>14s} {'B':>14s} "
             f"{'B/A':>8s} {'spreadA':>7s} {'spreadB':>7s} {'bound':>6s}  verdict"]
    for row in rows:
        ratio = row["change"] / row["base"] if row["base"] else float("nan")
        gated = row["verdict"] != "-"
        lines.append(
            f"{row['workload']:15s} {row['metric']:46s} "
            f"{row['base']:14.5g} {row['change']:14.5g} {ratio:7.3f}x "
            f"{_share(row.get('base_spread')) if gated else '':>7s} "
            f"{_share(row.get('change_spread')) if gated else '':>7s} "
            f"{(format(row['bound'], '6.2f') if gated else ''):>6s}  "
            f"{row['verdict']} [{row['unit']}"
            + (f", n={row['base_runs']}/{row['change_runs']}]" if gated else "]"))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows = compare_records(records[0], records[1], load_bounds())
    print(f"A = {argv[0]} ({records[0].get('git_sha', '?')[:12]}), "
          f"B = {argv[1]} ({records[1].get('git_sha', '?')[:12]})")
    print("\n".join(format_rows(rows)))
    counts: Dict[str, int] = {}
    for row in rows:
        if row["verdict"] != "-":
            counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("summary: " + ", ".join(f"{n} {name}" for name, n in sorted(counts.items())))
    return 1 if counts.get("regressed") or counts.get("unresolved") else 0


if __name__ == "__main__":
    sys.exit(main())
