"""Time-sliced fair query scheduling and admission control.

Two cooperating pieces sit between the serving layer and the SPARQL
evaluator so hostile queries cannot monopolise the server:

:class:`QueryScheduler`
    Runs queries in *slices* over a dedicated :class:`~repro.concurrency.pool.WorkerPool`.
    A slice pulls rows from the lazy iterator ``SPARQLEndpoint.start``
    returns until the query's :class:`~repro.sparql.execution.ExecutionContext`
    reports its row/time quantum spent; the task then *re-enqueues itself at
    the back of the FIFO queue* — behind every waiting cheap query — and
    resumes from its live generator on the next slice (the SaGe
    web-preemption model: suspension, not restart).  Nothing is thrown
    through the generator, so all join cursor state survives.  Deadlines and
    cancellation still abort a query mid-slice with a typed
    :class:`~repro.exceptions.QueryInterrupted` subclass.

:class:`AdmissionController`
    Bounds how many requests may be in flight at once.  When the bound (or
    the optional stalled-oldest-request rule) trips, new work is shed
    *before it executes* with :class:`~repro.exceptions.ServerOverloaded`
    (HTTP 503 + ``Retry-After``), so retrying a shed request is always safe.
    Admission, not the scheduler's queue, is the system's load bound: the
    scheduler's pending queue is sized generously because every admitted
    query occupies one queue slot per *slice*.  Should the queue still
    fill (a deployment running the scheduler without admission control),
    enqueues never block — the task is shed with ``ServerOverloaded``
    after a short bounded wait, so lanes cannot deadlock re-enqueuing.

The scheduler is deliberately unaware of HTTP: the serving layer builds the
execution context (deadline from the ``timeout=`` parameter, cancel event
from the client socket) and hands the scheduler a thunk.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from typing import Callable, Dict, Optional

from repro.exceptions import (
    QueryCancelled,
    QueryTimeout,
    ServerOverloaded,
)
from repro.concurrency.pool import WorkerPool
from repro.sparql.execution import ExecutionContext, StreamingResult
from repro.sparql.results import ResultSet

__all__ = ["AdmissionController", "QueryScheduler"]


# ---------------------------------------------------------------------------
# GIL switch-interval management.  sys.setswitchinterval is process-global,
# so per-instance save/restore misbehaves with overlapping schedulers (A
# closing first would restore the slow default under a still-running B, and
# B closing later would pin A's saved value forever).  A refcount shares the
# knob instead: the first acquisition saves the pre-scheduler value, the
# last release restores it; with several schedulers alive the most recently
# constructed one's interval wins.
# ---------------------------------------------------------------------------

_switch_lock = threading.Lock()
_switch_refs = 0
_switch_prior: Optional[float] = None


def _switch_interval_acquire(value: float) -> None:
    global _switch_refs, _switch_prior
    with _switch_lock:
        if _switch_refs == 0:
            _switch_prior = sys.getswitchinterval()
        _switch_refs += 1
        sys.setswitchinterval(value)


def _switch_interval_release() -> None:
    global _switch_refs, _switch_prior
    with _switch_lock:
        if _switch_refs <= 0:
            return
        _switch_refs -= 1
        if _switch_refs == 0 and _switch_prior is not None:
            sys.setswitchinterval(_switch_prior)
            _switch_prior = None


class AdmissionController:
    """Sheds load before it executes when the server is at capacity.

    Parameters
    ----------
    max_inflight:
        Concurrent admitted requests allowed; the ``max_inflight + 1``-th
        is shed.
    stall_seconds:
        Optional stalled-server rule: when at least half the slots are
        taken *and* the oldest admitted request has been running longer
        than this, new requests are shed too — capacity exists on paper but
        the server is visibly wedged.  ``None`` disables the rule.
    retry_after:
        The ``Retry-After`` hint (seconds) carried by the
        :class:`~repro.exceptions.ServerOverloaded` errors raised here.
    """

    def __init__(self, max_inflight: int = 16,
                 stall_seconds: Optional[float] = None,
                 retry_after: float = 1.0) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.max_inflight = max_inflight
        self.stall_seconds = stall_seconds
        self.retry_after = retry_after
        self._lock = threading.Lock()
        self._tickets = itertools.count(1)
        self._inflight: Dict[int, float] = {}
        self.admitted = 0
        self.shed = 0
        self.inflight_high_water = 0

    def admit(self) -> int:
        """Claim a slot; returns a ticket for :meth:`release`.

        Raises :class:`~repro.exceptions.ServerOverloaded` when the server
        is full (or stalled) — before the request has done any work.
        """
        now = time.monotonic()
        with self._lock:
            n = len(self._inflight)
            if n >= self.max_inflight:
                self.shed += 1
                raise ServerOverloaded(
                    f"server at capacity ({n} requests in flight); "
                    f"retry after {self.retry_after:g}s",
                    retry_after=self.retry_after)
            if (self.stall_seconds is not None
                    and n >= max(1, self.max_inflight // 2)
                    and now - min(self._inflight.values()) > self.stall_seconds):
                self.shed += 1
                raise ServerOverloaded(
                    f"server stalled (oldest of {n} in-flight requests "
                    f"exceeds {self.stall_seconds:g}s); "
                    f"retry after {self.retry_after:g}s",
                    retry_after=self.retry_after)
            ticket = next(self._tickets)
            self._inflight[ticket] = now
            self.admitted += 1
            if n + 1 > self.inflight_high_water:
                self.inflight_high_water = n + 1
            return ticket

    def release(self, ticket: int) -> None:
        with self._lock:
            self._inflight.pop(ticket, None)

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "inflight": len(self._inflight),
                "inflight_high_water": self.inflight_high_water,
                "admitted": self.admitted,
                "requests_shed": self.shed,
                "stall_seconds": self.stall_seconds,
                "retry_after": self.retry_after,
            }

    def __repr__(self) -> str:
        return (f"<AdmissionController {self.inflight}/{self.max_inflight} "
                f"shed={self.shed}>")


class _Task:
    """One scheduled query: its context, cursor state, and completion."""

    __slots__ = ("start", "context", "stream", "buffer", "result", "error",
                 "done", "slices")

    def __init__(self, start: Callable[[], object],
                 context: ExecutionContext) -> None:
        self.start = start
        self.context = context
        self.stream: Optional[StreamingResult] = None
        self.buffer: list = []
        self.result: object = None
        self.error: Optional[BaseException] = None
        self.done = threading.Event()
        self.slices = 0


class QueryScheduler:
    """Time-sliced fair execution of queries over a worker pool.

    ``run(start, context)`` blocks the *calling* thread (normally an HTTP
    worker that must write the response anyway) while the query's slices
    execute on the scheduler's own lanes.  Fairness comes from FIFO
    re-submission: a query that exhausts its quantum goes to the back of
    the queue, so cheap queries admitted later overtake a long cross
    product instead of waiting behind it.
    """

    def __init__(self, max_workers: int = 4,
                 quantum_rows: Optional[int] = 512,
                 quantum_seconds: Optional[float] = 0.02,
                 max_pending: Optional[int] = None,
                 gil_switch_interval: Optional[float] = 0.001) -> None:
        # Each admitted query occupies one queue slot per slice; the load
        # bound lives in the AdmissionController, so the queue is sized
        # generously.  A full queue sheds (see _enqueue) — never blocks.
        self._pool = WorkerPool(max_workers,
                                max_pending=max_pending if max_pending is not None else 1024,
                                name="kgnet-sched")
        # Iterator-level slicing cannot fix GIL scheduling: a compute-bound
        # lane holds the interpreter for sys.getswitchinterval() at a time
        # (5ms default), and measured cheap-query p99 under an adversarial
        # cross product is dominated by those handoffs, not slice waits
        # (~20ms at 5ms vs ~7ms at 1ms).  Constructing a scheduler opts the
        # process into serving, so tighten the knob; it is process-global
        # and shared by refcount across schedulers — the pre-scheduler
        # value returns once the last scheduler closes.  Pass None to
        # leave it alone.
        self._owns_switch_interval = gil_switch_interval is not None
        if gil_switch_interval is not None:
            _switch_interval_acquire(gil_switch_interval)
        self.quantum_rows = quantum_rows
        self.quantum_seconds = quantum_seconds
        self._lock = threading.Lock()
        self._closed = False
        self.queries_started = 0
        self.queries_completed = 0
        self.queries_preempted = 0
        self.queries_timed_out = 0
        self.queries_cancelled = 0
        self.queue_high_water = 0

    # ------------------------------------------------------------------
    def context(self, timeout: Optional[float] = None,
                cancel: Optional[threading.Event] = None) -> ExecutionContext:
        """An ExecutionContext pre-configured with this scheduler's quanta."""
        return ExecutionContext(timeout=timeout, cancel=cancel,
                                quantum_work=self.quantum_rows,
                                quantum_seconds=self.quantum_seconds)

    def run(self, start: Callable[[], object],
            context: Optional[ExecutionContext] = None):
        """Execute ``start`` under time-slicing; blocks until completion.

        ``start`` is called on a scheduler lane during the first slice and
        should return either a :class:`~repro.sparql.execution.StreamingResult`
        (sliced lazily, materialised into a
        :class:`~repro.sparql.results.ResultSet` at the end) or any other
        value (returned as-is — ASK/CONSTRUCT/updates finish in their first
        slice under the context's checkpoints).

        Raises whatever the query raised — including the typed
        :class:`~repro.exceptions.QueryInterrupted` family.
        """
        if context is None:
            context = self.context()
        task = _Task(start, context)
        with self._lock:
            self.queries_started += 1
        self._enqueue(task)
        task.done.wait()
        if task.error is not None:
            raise task.error
        return task.result

    # ------------------------------------------------------------------
    #: How long an enqueue may wait on a full pending queue before the
    #: task is shed.  Kept short: the wait holds the pool's shutdown lock.
    ENQUEUE_TIMEOUT = 0.05

    def _enqueue(self, task: _Task) -> None:
        try:
            future = self._pool.try_submit(self._run_slice, task,
                                           timeout=self.ENQUEUE_TIMEOUT)
        except RuntimeError as exc:  # pool shut down
            self._fail(task, QueryCancelled(f"scheduler stopped: {exc}"))
            return
        if future is None:
            # The pending queue stayed full.  Blocking here would hold the
            # pool's shutdown lock with every lane potentially re-enqueuing
            # into the same full queue — a permanent deadlock when the
            # scheduler runs without an AdmissionController bounding
            # in-flight queries below max_pending.  Shed instead: only
            # streaming reads re-enqueue (updates finish in their first
            # slice), so discarding partial progress is always retry-safe.
            self._fail(task, ServerOverloaded(
                f"scheduler queue full ({self._pool.max_pending} pending "
                f"slices); retry later"))
            return
        depth = self._pool._queue.qsize()
        with self._lock:
            if depth > self.queue_high_water:
                self.queue_high_water = depth

    def _run_slice(self, task: _Task) -> None:
        context = task.context
        context.begin_slice()
        try:
            if task.stream is None:
                started = task.start()
                if not isinstance(started, StreamingResult):
                    # Non-streaming work: it already ran to completion
                    # (checkpointed) inside this slice.
                    self._finish(task, started)
                    return
                task.stream = started
            stream = task.stream
            buffer = task.buffer
            batches = stream.batches
            # Every batch boundary (at most 256 id rows) is a suspension
            # point; the rows stay ids until someone reads the ResultSet.
            while not context.quantum_expired():
                batch = next(batches, None)
                if batch is None:
                    stream.finish(len(buffer))
                    self._finish(task, ResultSet.from_ids(
                        stream.variables, buffer, stream.terms))
                    return
                buffer.extend(batch)
        except BaseException as exc:  # noqa: BLE001 — delivered to the caller
            self._fail(task, exc)
            return
        # Quantum spent with rows remaining: yield the lane, go to the back
        # of the queue.  The generator keeps its cursor; nothing re-runs.
        task.slices += 1
        with self._lock:
            self.queries_preempted += 1
        self._enqueue(task)

    def _finish(self, task: _Task, result: object) -> None:
        # A done task lets go of its stream, and so of the snapshot the
        # stream reads: a worker may hold the task until its next one.
        task.stream = None
        task.result = result
        with self._lock:
            self.queries_completed += 1
        task.done.set()

    def _fail(self, task: _Task, exc: BaseException) -> None:
        task.stream = None
        task.error = exc
        with self._lock:
            if isinstance(exc, QueryTimeout):
                self.queries_timed_out += 1
            elif isinstance(exc, QueryCancelled):
                self.queries_cancelled += 1
        task.done.set()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_workers": self._pool.max_workers,
                "quantum_rows": self.quantum_rows,
                "quantum_seconds": self.quantum_seconds,
                "queue_depth": self._pool._queue.qsize(),
                "queue_high_water": self.queue_high_water,
                "queries_started": self.queries_started,
                "queries_completed": self.queries_completed,
                "queries_preempted": self.queries_preempted,
                "queries_timed_out": self.queries_timed_out,
                "queries_cancelled": self.queries_cancelled,
            }

    def close(self) -> None:
        """Stop the lanes; queries still queued fail with QueryCancelled."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        cancelled = self._pool.shutdown(wait=False, cancel_pending=True)
        for fn, args, kwargs in cancelled:
            if fn is self._run_slice and args:
                self._fail(args[0], QueryCancelled("scheduler shut down"))
        if self._owns_switch_interval:
            self._owns_switch_interval = False
            _switch_interval_release()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<QueryScheduler workers={self._pool.max_workers} "
                f"started={self.queries_started} "
                f"preempted={self.queries_preempted}>")
