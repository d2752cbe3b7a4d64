"""The five workloads: set-up, timed window, answer checking, wire metrics.

Every workload follows one script (:func:`run_wire`): set the fixture up from
nothing a few times (``setup_s`` is the median), build an in-process *twin*
of the same fixture to know the expected answers, warm up, drive the closed
loop for the window, then run the workload's after-window checks.  Nothing
here is timed with tracing on; the traced probes live in ``probes.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import statistics
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import KGNet
from repro.kgnet.api.envelopes import APIRequest
from repro.rdf.terms import BNode, IRI
from repro.server.service import ServiceHandler, ServiceRequest
from repro.sparql import ReferenceQueryEvaluator, parse_query

import oplists
from fixtures import PROFILES, build_platform
from metrics import COLD_CLASSES, INFER_CLASSES, percentile, summarize
from oplists import Op, OpList
from wire import (
    OUT_DIR,
    Connection,
    Sample,
    ServerProcess,
    body_digest,
    closed_loop,
    connection_count,
    envelope_result,
    report_rows,
    rows_digest,
    sparql_json_rows,
)

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
#: Set-ups per untraced run; ``setup_s`` is their median.  A fixture that
#: sets up in well under a second is mostly interpreter start-up and imports,
#: the noisiest part, so it is repeated until SETUP_MIN_TOTAL_S are spent.
SETUP_REPEATS = 3
SETUP_MIN_TOTAL_S = 3.0
SETUP_MAX_REPEATS = 6
#: Ops per query_cold class checked against ReferenceQueryEvaluator, and the
#: time after which the remaining sample is skipped (and reported as such).
REFERENCE_SAMPLE_PER_CLASS = 2
REFERENCE_DEADLINE_S = 8.0
#: Unmeasured traffic before the window, and the slices the window is cut in.
WARMUP_S = 1.0
SLICES = 4


def resultset_rows(result) -> List[str]:
    """Canonical rows of an in-process result, built from the RDF terms --
    not through the serializer the server uses, so the two are independent."""
    if isinstance(result, bool):
        return [f"boolean={result}"]
    rows = []
    for solution in result:
        cells = []
        for var, term in sorted(solution.items(), key=lambda kv: kv[0].name):
            if isinstance(term, IRI):
                cell = f"uri|{term.value}||"
            elif isinstance(term, BNode):
                cell = f"bnode|{term.id}||"
            else:
                language = term.language or ""
                datatype = "" if language or term.datatype.value == XSD_STRING \
                    else term.datatype.value
                cell = f"literal|{term.lexical}|{datatype}|{language}"
            cells.append(f"{var.name}={cell}")
        rows.append("\x1f".join(cells))
    return rows


class Workload:
    """State and policy of one run of one workload."""

    name = ""
    #: Classes whose untraced per-class median is reported.
    classes: Tuple[str, ...] = ()

    def __init__(self, seed: int, profile: str) -> None:
        self.seed = seed
        self.spec = dict(PROFILES[profile][self.name])
        self.conns = connection_count()
        self.oplist: OpList = self.build_ops()
        #: key -> (digest of the exact body, digest of the canonical rows)
        self.expected: Dict[str, Tuple[bytes, str]] = {}
        self.extra_attempted = 0
        self.extra_failed = 0
        self.notes: Dict[str, object] = {}
        self.wire_values: Dict[str, float] = {}
        self._tmpdirs: List[str] = []

    # -- hooks ----------------------------------------------------------
    def build_ops(self) -> OpList:
        raise NotImplementedError

    def needs_twin(self) -> bool:
        return True

    def learn_expected(self, twin: KGNet) -> None:
        """Fill :attr:`expected` from the in-process twin."""

    def sequences(self) -> List[Iterator[Op]]:
        return [itertools.cycle(self.oplist.for_connection(c, self.conns))
                for c in range(self.conns)]

    def check(self, conn: int, op: Op, status: int, body: bytes) -> bool:
        """Whether ``body`` is the right answer to ``op`` (status is 200)."""
        return self.check_protocol_answer(op, body)

    def gauged(self, cls: str) -> bool:
        """Whether ops of ``cls`` count into ``p50_ms`` / ``p95_ms``."""
        return True

    def drive(self, server: ServerProcess, seconds: float) -> Tuple[List[Sample], float]:
        """Unmeasured traffic of the same kind (a quarter of the window, at
        most :data:`WARMUP_S`), then the window."""
        sequences = self.sequences()
        closed_loop(server, sequences, min(WARMUP_S, seconds / 4), self.check)
        return closed_loop(server, sequences, seconds, self.check)

    def window_metrics(self, samples: Sequence[Sample],
                       elapsed: float) -> Dict[str, float]:
        """Throughput and latency as medians over :data:`SLICES` equal slices
        of the window: a burst of interference from the shared host then
        costs one slice, not the run.  The tail quantile is chosen once, from
        the whole window's sample count."""
        pooled = summarize(ms for cls, ms, ok, _at in samples
                           if ok and self.gauged(cls))
        width = elapsed / SLICES
        counts = [0] * SLICES
        latencies: List[List[float]] = [[] for _ in range(SLICES)]
        for cls, ms, ok, at in samples:
            if ok:
                index = min(SLICES - 1, int(at / width))
                counts[index] += 1
                if self.gauged(cls):
                    latencies[index].append(ms)
        ordered = [sorted(values) for values in latencies if values]
        if not ordered:
            return {"ops_per_s": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, **pooled}
        return {
            "ops_per_s": statistics.median(count / width for count in counts),
            "p50_ms": statistics.median(percentile(v, 0.50) for v in ordered),
            "p95_ms": statistics.median(percentile(v, pooled["tail_q"])
                                        for v in ordered),
            **pooled}

    def after_window(self, server: ServerProcess,
                     samples: Sequence[Sample]) -> ServerProcess:
        """Workload-specific checks once the window closed; returns the
        server that is running afterwards (``update_mix`` replaces it)."""
        return server

    # -- storage directories -------------------------------------------
    def storage_dir(self) -> Optional[str]:
        if not self.spec.get("storage"):
            return None
        os.makedirs(OUT_DIR, exist_ok=True)
        directory = tempfile.mkdtemp(prefix=f"store-{self.name}-", dir=OUT_DIR)
        self._tmpdirs.append(directory)
        return directory

    def cleanup(self) -> None:
        for directory in self._tmpdirs:
            shutil.rmtree(directory, ignore_errors=True)
        self._tmpdirs.clear()

    # -- SPARQL protocol answers ---------------------------------------
    def learn_protocol_answers(self, twin: KGNet, ops: Sequence[Op]) -> None:
        handler = ServiceHandler(twin.api)
        for op in ops:
            if op.key in self.expected:
                continue
            response = handler.handle(ServiceRequest(
                op.method, op.target, dict(op.headers), op.body))
            body = response.read_body()
            if response.status != 200:
                raise RuntimeError(f"twin answered {response.status} for "
                                   f"{op.text!r}: {body[:200]!r}")
            self.expected[op.key] = (body_digest(body),
                                     rows_digest(sparql_json_rows(body)))

    def check_protocol_answer(self, op: Op, body: bytes) -> bool:
        if op.expect is not None:
            try:
                return json.loads(body)["boolean"] is op.expect
            except (ValueError, KeyError, TypeError):
                return False
        exact, rows = self.expected[op.key]
        if body_digest(body) == exact:
            return True
        try:
            return rows_digest(sparql_json_rows(body)) == rows
        except (ValueError, KeyError, TypeError):
            return False


class LookupHot(Workload):
    name = "lookup_hot"

    def build_ops(self) -> OpList:
        return oplists.build_lookup_hot(self.seed, int(self.spec["triples"]))

    def learn_expected(self, twin: KGNet) -> None:
        self.learn_protocol_answers(twin, self.oplist.ops)


class QueryCold(Workload):
    name = "query_cold"
    classes = COLD_CLASSES

    def build_ops(self) -> OpList:
        return oplists.build_query_cold(self.seed, int(self.spec["triples"]))

    def learn_expected(self, twin: KGNet) -> None:
        self.learn_protocol_answers(twin, self.oplist.ops)
        self.check_against_reference(twin)

    def check_against_reference(self, twin: KGNet) -> None:
        """A fixed sample per class against the independent evaluator.

        Sliced texts (``wide``) carry no ORDER BY, so which rows they return
        is the engine's choice: for those the check is containment in the
        unsliced reference answer plus the exact row count.
        """
        started = time.perf_counter()
        handler = ServiceHandler(twin.api)
        checked = skipped = 0
        for cls in self.classes:
            sample = [op for op in self.oplist.ops if op.cls == cls]
            for op in sample[:REFERENCE_SAMPLE_PER_CLASS]:
                if time.perf_counter() - started > REFERENCE_DEADLINE_S:
                    skipped += 1
                    continue
                query = parse_query(op.text, namespaces=twin.endpoint.namespaces)
                limit, offset = query.limit, query.offset
                query.limit, query.offset = None, 0
                reference = resultset_rows(
                    ReferenceQueryEvaluator(twin.endpoint.graph).evaluate(query))
                body = handler.handle(ServiceRequest(
                    op.method, op.target, dict(op.headers))).read_body()
                rows = sparql_json_rows(body)
                if limit is None:
                    ok = sorted(rows) == sorted(reference)
                else:
                    pool: Dict[str, int] = {}
                    for row in reference:
                        pool[row] = pool.get(row, 0) + 1
                    ok = len(rows) == min(limit, max(0, len(reference) - offset))
                    for row in rows:
                        pool[row] = pool.get(row, 0) - 1
                        ok = ok and pool[row] >= 0
                checked += 1
                self.extra_attempted += 1
                if not ok:
                    self.extra_failed += 1
                    self.notes.setdefault("reference_mismatches", []).append(op.text)
        self.notes["reference_checked"] = checked
        self.notes["reference_skipped_by_deadline"] = skipped


class SparqlmlInfer(Workload):
    name = "sparqlml_infer"
    classes = INFER_CLASSES

    def build_ops(self) -> OpList:
        return oplists.build_sparqlml_infer(self.seed, float(self.spec["scale"]))

    def learn_expected(self, twin: KGNet) -> None:
        # One expected row set per text, computed under the optimizer's own
        # plan choice; ops that force the other plan must match it too.
        for op in self.oplist.ops:
            if op.key in self.expected:
                continue
            response = twin.api.dispatch(APIRequest(
                op="sparqlml_select", params={"query": op.text}))
            response.raise_for_error()
            rows = report_rows(response.to_dict()["result"])
            self.expected[op.key] = (b"", rows_digest(rows))

    def check(self, conn: int, op: Op, status: int, body: bytes) -> bool:
        try:
            result = envelope_result(body)
            return rows_digest(report_rows(result)) == self.expected[op.key][1]
        except (ValueError, KeyError, TypeError):
            return False


class UpdateMix(Workload):
    name = "update_mix"

    def build_ops(self) -> OpList:
        oplist, self.mixes = oplists.build_update_mix(
            self.seed, int(self.spec["triples"]), connection_count())
        #: Per connection: cycles whose write the server acknowledged.
        self.acknowledged: List[List[Tuple[int, str]]] = [[] for _ in self.mixes]
        self._cycle_of: List[int] = [0] * len(self.mixes)
        return oplist

    def learn_expected(self, twin: KGNet) -> None:
        self.learn_protocol_answers(twin, self.mixes[0].reads)

    def sequences(self) -> List[Iterator[Op]]:
        def cycles(conn: int) -> Iterator[Op]:
            for k in itertools.count():
                self._cycle_of[conn] = k
                yield from self.mixes[conn].cycle(k)
        return [cycles(conn) for conn in range(len(self.mixes))]

    def check(self, conn: int, op: Op, status: int, body: bytes) -> bool:
        if op.route == "update":
            try:
                ok = bool(json.loads(body).get("ok"))
            except (ValueError, AttributeError):
                ok = False
            if ok:
                self.acknowledged[conn].append((self._cycle_of[conn], op.cls))
            return ok
        return self.check_protocol_answer(op, body)

    def gauged(self, cls: str) -> bool:
        return cls not in ("insert", "delete")

    def surviving_subjects(self) -> set:
        """Acknowledged inserts net of acknowledged deletes, as subject IRIs."""
        alive = set()
        for conn, acknowledged in enumerate(self.acknowledged):
            for cycle, kind in acknowledged:
                if kind == "insert":
                    alive.add(self.mixes[conn].subject(cycle))
                else:
                    alive.discard(self.mixes[conn].subject(cycle - 2))
        return alive

    def after_window(self, server: ServerProcess,
                     samples: Sequence[Sample]) -> ServerProcess:
        writes = summarize(ms for cls, ms, ok, _at in samples
                           if ok and cls in ("insert", "delete"))
        self.wire_values["write_p50_ms"] = writes["p50"]
        self.wire_values["write_p95_ms"] = writes["tail"]
        self.notes["write_samples"] = writes["n"]
        self.notes["write_tail_q"] = writes["tail_q"]
        self.notes["acknowledged_writes"] = sum(map(len, self.acknowledged))
        self.wire_values["server_peak_rss_mb"] = server.peak_rss_mb()
        # kill -9: the page cache survives, so this proves process-crash
        # durability only; fsync-level proof stays with tests/storage.
        storage_dir = server.storage_dir
        server.stop(kill=True)
        expected = self.surviving_subjects()
        probe = oplists.query_op(
            "recovery", f"SELECT ?s WHERE {{ ?s {oplists.WRITE_PREDICATE} ?o }}",
            no_store=True)
        started = time.perf_counter()
        recovered = ServerProcess(self.spec, storage_dir).start()
        status, body = Connection(recovered.port).send(probe)
        self.wire_values["recover_s"] = time.perf_counter() - started
        found = set()
        if status == 200:
            found = {row.split("|")[1] for row in sparql_json_rows(body)}
        self.extra_attempted += max(1, len(expected))
        self.extra_failed += len(expected ^ found) if status == 200 \
            else max(1, len(expected))
        self.notes["recovered_subjects"] = len(found)
        return recovered


class TrainPipeline(Workload):
    name = "train_pipeline"
    GATED = ("T1", "T2", "T3")

    def __init__(self, seed: int, profile: str) -> None:
        super().__init__(seed, profile)
        self.conns = 1
        #: label -> the train reports the server returned, in order.
        self.reports: Dict[str, List[Dict[str, object]]] = {}
        #: label -> client-observed wall seconds of each train request.
        self.walls: Dict[str, List[float]] = {}

    def build_ops(self) -> OpList:
        return oplists.build_train_pipeline(self.seed, float(self.spec["scale"]))

    def needs_twin(self) -> bool:
        return False

    def drive(self, server: ServerProcess, seconds: float) -> Tuple[List[Sample], float]:
        """One connection sends T1-T3, repetition after repetition, until the
        window is spent (a repetition that started is finished)."""
        conn = Connection(server.port)
        samples: List[Sample] = []
        started = time.perf_counter()
        try:
            for rep in itertools.count():
                if time.perf_counter() - started >= seconds or not server.alive():
                    break
                samples.extend(self.send_rep(conn, rep))
        finally:
            conn.close()
        return samples, max(time.perf_counter() - started, 1e-9)

    def send_rep(self, conn: Connection, rep: int) -> List[Sample]:
        """Train every task of ``rep``, then ask each new model one question."""
        samples: List[Sample] = []
        checks: List[Op] = []
        for train, check in oplists.train_rep(self.seed, rep,
                                              float(self.spec["scale"])):
            label = train.cls.split(":")[1]
            began = time.perf_counter()
            status, body = conn.send(train)
            wall = time.perf_counter() - began
            report = self.check_report(label, status, body)
            samples.append((train.cls, wall * 1e3, report is not None, 0.0))
            if report is not None:
                self.reports.setdefault(label, []).append(report)
                self.walls.setdefault(label, []).append(wall)
                checks.append(oplists.envelope_op(
                    check.cls, check.target.rsplit("/", 1)[1], "",
                    model_uri=report["model_uri"], **dict(check.params)))
        for check in checks:
            began = time.perf_counter()
            status, body = conn.send(check)
            samples.append((check.cls, (time.perf_counter() - began) * 1e3,
                            status == 200 and self.check_inference(check, body),
                            0.0))
        return samples

    def check_report(self, label: str, status: int,
                     body: bytes) -> Optional[Dict[str, object]]:
        """A well-formed train report whose score equals the first one's:
        for a fixed data seed the score is exact, run after run."""
        if status != 200:
            return None
        try:
            report = envelope_result(body)
            score = self.score_of(label, report)
            peak = int(report["training"]["peak_memory_bytes"])
        except (ValueError, KeyError, TypeError):
            return None
        if not 0.0 <= score <= 1.0 or peak <= 0:
            return None
        if label in self.reports and \
                self.score_of(label, self.reports[label][0]) != score:
            return None
        return report

    @staticmethod
    def score_of(label: str, report: Dict[str, object]) -> float:
        metrics = report["metrics"]
        return float(metrics["hits@10"] if label == "T3" else metrics["accuracy"])

    @staticmethod
    def check_inference(check: Op, body: bytes) -> bool:
        try:
            output = envelope_result(body)["output"]
        except (ValueError, KeyError, TypeError):
            return False
        if check.cls == "check:nc":
            return isinstance(output, str) and "/venue/" in output
        return isinstance(output, list) and 0 < len(output) <= 3 and \
            all("/affiliation/" in str(link.get("entity")) for link in output)

    def window_metrics(self, samples: Sequence[Sample],
                       elapsed: float) -> Dict[str, float]:
        """Not sliced: a dozen train requests are the whole sample."""
        pooled = summarize(ms for cls, ms, ok, _at in samples
                           if ok and cls.startswith("train:"))
        return {"ops_per_s": sum(1 for s in samples if s[2]) / elapsed,
                "p50_ms": pooled["p50"], "p95_ms": pooled["tail"], **pooled}

    def after_window(self, server: ServerProcess,
                     samples: Sequence[Sample]) -> ServerProcess:
        # T4, the same RGCN task on the full KG: once, outside the window.
        conn = Connection(server.port)
        full = self.send_rep(conn, oplists.FULL_KG_REP)
        conn.close()
        self.extra_attempted += len(full)
        self.extra_failed += sum(1 for sample in full if not sample[2])
        if any(label not in self.reports for label in self.GATED):
            self.extra_attempted += 1
            self.extra_failed += 1
            return server
        self.wire_values["train_s"] = sum(
            statistics.median(self.walls[label]) for label in self.GATED)
        self.wire_values["train_peak_mb"] = max(
            int(report["training"]["peak_memory_bytes"])
            for label in self.GATED for report in self.reports[label]) / 1e6
        self.wire_values["model_score"] = statistics.mean(
            self.score_of(label, self.reports[label][0]) for label in self.GATED)
        self.notes["repetitions"] = min(len(self.walls[l]) for l in self.GATED)
        self.notes["train_reports"] = {
            label: {"metrics": reports[0]["metrics"],
                    "meta_sampling": reports[0]["meta_sampling"],
                    "wall_s": self.walls[label],
                    "peak_memory_bytes":
                        reports[0]["training"]["peak_memory_bytes"]}
            for label, reports in sorted(self.reports.items())}
        return server


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (LookupHot, QueryCold, SparqlmlInfer, UpdateMix, TrainPipeline)}


def run_wire(workload: Workload, seconds: float, setup_repeats: int,
             ) -> Tuple[Dict[str, float], Optional[KGNet], Dict[str, object]]:
    """Set up, measure the window, check.  Returns the wire metrics, the
    twin (for the traced probes) and the twin's build info."""
    values = workload.wire_values
    setups: List[float] = []
    server: Optional[ServerProcess] = None
    twin: Optional[KGNet] = None
    twin_info: Dict[str, object] = {}
    try:
        while len(setups) < setup_repeats or (
                setup_repeats > 1 and sum(setups) < SETUP_MIN_TOTAL_S
                and len(setups) < SETUP_MAX_REPEATS):
            if server is not None:
                server.stop()
            server = ServerProcess(workload.spec, workload.storage_dir()).start()
            setups.append(server.setup_s)
        if workload.needs_twin():
            twin, twin_info = build_platform(workload.spec)
            workload.learn_expected(twin)
        warm = Connection(server.port)
        for index in workload.oplist.warmup:
            op = workload.oplist.ops[index]
            status, body = warm.send(op)
            workload.extra_attempted += 1
            if status != 200 or not workload.check(0, op, status, body):
                workload.extra_failed += 1
        warm.close()

        samples, elapsed = workload.drive(server, seconds)
        if not server.alive():
            workload.notes["server_died_in_window"] = True
            workload.extra_attempted += 1
            workload.extra_failed += 1
        else:
            server = workload.after_window(server, samples)
        values.setdefault("server_peak_rss_mb", server.peak_rss_mb())
    finally:
        if server is not None:
            server.stop()
        workload.cleanup()

    correct = sum(1 for sample in samples if sample[2])
    window = workload.window_metrics(samples, elapsed)
    attempted = len(samples) + workload.extra_attempted
    failed = len(samples) - correct + workload.extra_failed
    values.update({
        "setup_s": statistics.median(setups),
        "ops_per_s": window["ops_per_s"],
        "p50_ms": window["p50_ms"],
        "p95_ms": window["p95_ms"],
        "fail_share": failed / max(1, attempted),
    })
    by_class: Dict[str, List[float]] = {}
    for cls, ms, ok, _at in samples:
        if ok:
            by_class.setdefault(cls, []).append(ms)
    for cls in workload.classes:
        values[f"class.{cls}.p50_ms"] = summarize(by_class.get(cls, ()))["p50"]
    busy = sum(sum(v) for v in by_class.values()) or 1.0
    workload.notes.update({
        "attempted": attempted, "failed": failed, "succeeded": attempted - failed,
        "window_s": elapsed, "window_ops": len(samples),
        "latency_samples": window["n"], "latency_tail_q": window["tail_q"],
        "setup_samples_s": setups,
        "class_samples": {cls: len(v) for cls, v in sorted(by_class.items())},
        "class_busy_share": {cls: round(sum(v) / busy, 4)
                             for cls, v in sorted(by_class.items())},
        "ops_sha256": workload.oplist.sha256(),
        "class_mix": workload.oplist.class_mix(),
    })
    return values, twin, twin_info
