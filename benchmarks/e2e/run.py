"""The benchmark of record: one command, five over-the-wire workloads.

Driver mode -- one workload, one run, the result object as the last line::

    python3 benchmarks/e2e/run.py --workload query_cold --seed 7 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run: the same op lists over the wire once more, then
replayed in process through the onion probes (per-layer metrics, spans).

Record mode -- every workload, ``--runs`` untraced runs plus one traced run
each, one record envelope for ``compare.py`` and the spans beside it::

    python3 benchmarks/e2e/run.py --all --runs 5 --out benchmarks/e2e/out/record.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RECORD_SCHEMA = "kgnet-e2e-record/1"
DEFAULT_SECONDS = 8


def bootstrap() -> None:
    """Find the program, pin the hash seed, make the imports resolvable."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # MorsE training iterates sets of strings; the twin that computes the
        # expected link predictions must hash like the server child does.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload_name: str, seed: int, seconds: int, trace: bool,
             profile: str) -> Dict[str, object]:
    """One run of one workload: the full detail document."""
    import metrics
    import probes
    import workloads
    from fixtures import build_platform

    workload = workloads.WORKLOAD_CLASSES[workload_name](seed, profile)
    repeats = 1 if trace or profile == "tiny" else workloads.SETUP_REPEATS
    values, twin, twin_info = workloads.run_wire(workload, seconds, repeats)
    spans = probes.Spans()
    layers: Dict[str, float] = {}
    if trace:
        if twin is None:
            twin, twin_info = build_platform(workload.spec)
        layers = probes.run_probes(workload, twin, twin_info, spans)
    notes = workload.notes
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "profile": profile, "spec": workload.spec,
        "connections": workload.conns,
        "correct": notes["failed"] == 0,
        "attempted": notes["attempted"], "failed": notes["failed"],
        "end_to_end": {m.name: values.get(m.name, 0.0) for m in metrics.END_TO_END},
        "wire_only": {m.name: values[m.name] for m in metrics.WIRE_ONLY
                      if m.name in values},
        "per_layer": layers,
        "notes": notes,
        "spans": spans.rows,
    }


def result_line(detail: Dict[str, object]) -> str:
    """The driver's contract: exactly these keys, every metric of the list."""
    import metrics
    if detail["trace"]:
        values = dict(detail["wire_only"])
        values.update(detail["per_layer"])
        emitted = metrics.emit(metrics.PER_LAYER, values)
    else:
        emitted = metrics.emit(metrics.END_TO_END, detail["end_to_end"])
    return json.dumps({"correct": bool(detail["correct"]),
                       "attempted": int(detail["attempted"]),
                       "failed": int(detail["failed"]), "metrics": emitted})


def print_metrics(detail: Dict[str, object]) -> None:
    import metrics
    print(f"# {detail['workload']} seed={detail['seed']} "
          f"window={detail['notes']['window_s']:.2f}s trace={detail['trace']} "
          f"sent={detail['attempted']} failed={detail['failed']} "
          f"ops_sha256={detail['notes']['ops_sha256'][:16]}")
    for group in ("end_to_end", "wire_only", "per_layer"):
        for name, value in detail[group].items():
            print(f"{group:10s} {name:48s} {value:14.6f} {metrics.BY_NAME[name].unit}")
    print(f"# latency samples={detail['notes']['latency_samples']} "
          f"tail quantile={detail['notes']['latency_tail_q']}")


def write_spans(path: str, rows: List[Dict[str, object]]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def pin_to_one_cpu() -> None:
    """One CPU for generator and server child alike (children inherit it).

    On the 2-vCPU sandbox a cross-core wake-up costs 50-100 us, so where the
    scheduler happened to put the two processes decided between 5k and 12k
    ops/s on lookup_hot, and slice-to-slice noise was +-20 %.  On one CPU the
    numbers are CPU cost per op, and they repeat (README).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def driver_mode(args: argparse.Namespace) -> int:
    if args.profile == "full":
        pin_to_one_cpu()
    detail = run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.profile)
    spans = detail.pop("spans")
    if spans:
        write_spans(os.path.join(HERE, "out",
                                 f"spans-{args.workload}-{args.seed}.jsonl"), spans)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(dict(detail, spans=spans), handle)
    print_metrics(detail)
    print(result_line(detail), flush=True)
    return 0


def record_mode(args: argparse.Namespace) -> int:
    """Every workload ``--runs`` times untraced (seed, seed+1, ...) and once
    traced, each as its own invocation of this file."""
    import metrics
    from fixtures import PROFILES

    def invoke(workload: str, seed: int, trace: int) -> Dict[str, object]:
        with tempfile.NamedTemporaryFile(suffix=".json", dir=os.path.join(HERE, "out"),
                                         delete=False) as handle:
            path = handle.name
        try:
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", workload, "--seed", str(seed),
                            "--seconds", str(args.seconds), "--trace", str(trace),
                            "--profile", args.profile, "--detail", path],
                           check=True, stdout=subprocess.DEVNULL)
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        finally:
            os.unlink(path)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    record: Dict[str, object] = {
        "schema": RECORD_SCHEMA, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": args.seed, "runs": args.runs, "window_s": args.seconds,
        "profile": args.profile, "scales": PROFILES[args.profile],
        "fsync": True, "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    all_spans: List[Dict[str, object]] = []
    for workload in metrics.WORKLOADS:
        runs = [invoke(workload, args.seed + i, 0) for i in range(args.runs)]
        traced = invoke(workload, args.seed, 1)
        for row in traced.pop("spans"):
            all_spans.append(dict(row, workload=workload))
        end_to_end = {}
        for metric in metrics.END_TO_END + metrics.WIRE_ONLY:
            if workload not in metric.workloads:
                continue
            series = [run["end_to_end"].get(metric.name,
                                            run["wire_only"].get(metric.name))
                      for run in runs]
            end_to_end[metric.name] = {
                "unit": metric.unit, "values": series,
                "median": statistics.median(series)}
        record["workloads"][workload] = {
            "connections": runs[0]["connections"],
            "end_to_end": end_to_end,
            "per_layer": {name: {"unit": metrics.BY_NAME[name].unit, "value": value}
                          for name, value in traced["per_layer"].items()},
            "sent": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "succeeded": sum(run["attempted"] - run["failed"] for run in runs),
            "ops_sha256": [run["notes"]["ops_sha256"] for run in runs],
            "latency_samples": [run["notes"]["latency_samples"] for run in runs],
            "notes": [dict(run["notes"]) for run in runs],
            "traced_notes": traced["notes"],
        }
        print(f"{workload}: {args.runs} untraced + 1 traced run done", flush=True)
    for run in record["workloads"].values():
        for notes in run["notes"]:
            notes.pop("train_reports", None)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    write_spans(os.path.splitext(args.out)[0] + ".spans.jsonl", all_spans)
    print(f"record: {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    bootstrap()
    import metrics
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="'tiny' is the self-check's fixture size")
    parser.add_argument("--detail", help="also write the run's full detail JSON here")
    parser.add_argument("--all", action="store_true",
                        help="record mode: every workload into one envelope")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", help="record mode: the envelope's path")
    args = parser.parse_args(argv)
    if args.all:
        if not args.out:
            parser.error("--all needs --out")
        return record_mode(args)
    if not args.workload:
        parser.error("give --workload NAME, or --all --out PATH")
    return driver_mode(args)


if __name__ == "__main__":
    sys.exit(main())
