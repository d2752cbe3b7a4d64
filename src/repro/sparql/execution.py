"""Cooperative interruption for the streaming SPARQL pipeline.

The evaluator's operators are plain Python generators; nothing external can
stop one mid-flight.  :class:`ExecutionContext` closes that gap with a
*cooperative* protocol: every operator calls :meth:`~ExecutionContext.checkpoint`
once per unit of work (a join-loop iteration, a row through a filter), and the
context raises a typed :class:`~repro.exceptions.QueryInterrupted` subclass as
soon as a limit trips:

* a **deadline** (``timeout`` seconds, measured on the monotonic clock)
  raises :class:`~repro.exceptions.QueryTimeout`,
* a **cancellation event** (set by the server when the client disconnects)
  raises :class:`~repro.exceptions.QueryCancelled`,
* a hard **work budget** (``max_work`` checkpoint ticks) raises
  :class:`~repro.exceptions.QueryPreempted`.

Each exception carries partial-progress statistics (elapsed time, work units,
rows emitted) so callers and the wire protocol can report how far the query
got before it was stopped.

Time-sliced scheduling does **not** use the work budget: raising an exception
through a running generator destroys its cursor state, so the scheduler in
:mod:`repro.concurrency.scheduler` instead *suspends consumption* of the lazy
batch iterator returned by ``QueryEvaluator.stream_select`` when
:meth:`~ExecutionContext.quantum_expired` reports the slice is over — the
generator stays alive, parked exactly where it was, and resumes on the next
slice.  ``checkpoint`` stays cheap for that reason too: the hot join loop
amortises it behind a bitmask so preemptability costs the happy path almost
nothing.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator, List, Optional, Sequence

from repro.exceptions import QueryCancelled, QueryPreempted, QueryTimeout

__all__ = ["BATCH_ROWS", "ExecutionContext", "StreamingResult"]

#: Most rows the evaluator hands on (and a writer serializes) at once: every
#: batch boundary is a checkpoint and a scheduler suspension point, so this
#: bounds deadline / cancel / preemption latency.
BATCH_ROWS = 256


class ExecutionContext:
    """Per-query interruption state threaded through the evaluator.

    Parameters
    ----------
    timeout:
        Wall-clock budget in seconds; ``None`` disables the deadline.  The
        clock starts when the context is constructed (monotonic).
    cancel:
        A :class:`threading.Event`-like object with ``is_set()``; when set,
        the next checkpoint raises :class:`QueryCancelled`.  ``None``
        allocates a private event so :meth:`cancel` always works.
    max_work:
        Hard budget of checkpoint ticks; ``None`` disables it.  Exceeding it
        raises :class:`QueryPreempted` — use only when the caller wants a
        fatal cap, not for time-slicing (see module docstring).
    quantum_work, quantum_seconds:
        Soft per-slice budgets consulted by :meth:`quantum_expired`.  They
        never raise; the scheduler polls them between rows to decide when to
        suspend.  ``None`` disables each bound.
    """

    __slots__ = ("deadline", "timeout", "_cancel", "max_work",
                 "quantum_work", "quantum_seconds", "work_units",
                 "rows_emitted", "started_at", "_slice_started",
                 "_slice_work", "interrupted")

    def __init__(self, timeout: Optional[float] = None,
                 cancel: Optional[threading.Event] = None,
                 max_work: Optional[int] = None,
                 quantum_work: Optional[int] = None,
                 quantum_seconds: Optional[float] = None) -> None:
        now = time.monotonic()
        self.started_at = now
        self.timeout = timeout
        self.deadline = now + timeout if timeout is not None else None
        self._cancel = cancel if cancel is not None else threading.Event()
        self.max_work = max_work
        self.quantum_work = quantum_work
        self.quantum_seconds = quantum_seconds
        #: Total checkpoint ticks over the query's whole life (all slices).
        self.work_units = 0
        #: Result rows the consumer has accounted (see :meth:`count_row`).
        self.rows_emitted = 0
        self._slice_started = now
        self._slice_work = 0
        #: The terminal exception, once one has been raised (for stats).
        self.interrupted: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def checkpoint(self, work: int = 1) -> None:
        """Account ``work`` ticks and raise if any hard limit has tripped.

        Hot operators amortise the call (e.g. once per 256 iterations with
        ``work=256``); cool operators call it per row with the default.
        """
        self.work_units += work
        self._slice_work += work
        if self._cancel.is_set():
            self._raise(QueryCancelled("query cancelled"))
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._raise(QueryTimeout(
                f"query exceeded its {self.timeout:g}s timeout"))
        if self.max_work is not None and self.work_units > self.max_work:
            self._raise(QueryPreempted(
                f"query exceeded its work budget of {self.max_work} units"))

    def _raise(self, exc: QueryTimeout) -> None:
        exc.elapsed_seconds = self.elapsed()
        exc.work_units = self.work_units
        exc.rows_emitted = self.rows_emitted
        self.interrupted = exc
        raise exc

    # ------------------------------------------------------------------
    # Scheduler slice protocol (never raises)
    # ------------------------------------------------------------------
    def begin_slice(self) -> None:
        """Reset the per-slice budgets at the start of a scheduler slice."""
        self._slice_started = time.monotonic()
        self._slice_work = 0

    def quantum_expired(self) -> bool:
        """Has the current slice used up its row or time quantum?"""
        if (self.quantum_work is not None
                and self._slice_work >= self.quantum_work):
            return True
        if (self.quantum_seconds is not None
                and time.monotonic() - self._slice_started
                >= self.quantum_seconds):
            return True
        return False

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def count_row(self, rows: int = 1) -> None:
        """Record emitted result rows (called by the consuming layer)."""
        self.rows_emitted += rows

    def cancel(self) -> None:
        """Request cancellation; the next checkpoint raises."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def elapsed(self) -> float:
        return time.monotonic() - self.started_at

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline, or ``None`` without one."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ExecutionContext timeout={self.timeout} "
                f"work={self.work_units} rows={self.rows_emitted}>")


class StreamingResult:
    """A lazily evaluated SELECT: variables, unconsumed id-row batches, decoder.

    ``SPARQLEndpoint.start`` returns one of these instead of a
    materialised :class:`~repro.sparql.results.ResultSet`.  ``batches``
    yields lists of at most 256 rows, each row a tuple of term ids aligned
    with ``variables`` (``None`` = unbound); ``terms.decode(id)`` is the
    cell's term and ``terms.dictionary`` the dictionary the non-negative ids
    belong to.  The consumer (the scheduler, a result writer) pulls batches —
    every batch boundary is a suspension point — and calls :meth:`finish`
    once with the final row count so the endpoint can record query
    statistics on whatever thread drove the iterator.
    """

    __slots__ = ("variables", "batches", "terms", "finish")

    def __init__(self, variables: List, batches: Iterator[List[Sequence]],
                 terms, finish: Optional[Callable[[int], None]] = None) -> None:
        self.variables = variables
        self.batches = batches
        self.terms = terms
        self.finish = finish if finish is not None else (lambda rows: None)

    def materialize(self):
        """Drain the iterator into a ResultSet (convenience, no slicing)."""
        from repro.sparql.results import ResultSet

        rows = [row for batch in self.batches for row in batch]
        self.finish(len(rows))
        return ResultSet.from_ids(self.variables, rows, self.terms)
