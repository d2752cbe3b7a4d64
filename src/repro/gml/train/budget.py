"""Task budgets and resource monitoring.

A SPARQL-ML ``INSERT`` (TrainGML) request carries a *task budget* — maximum
memory, maximum time and an optimisation priority (paper Fig 8).  The
:class:`TaskBudget` models that JSON object; :class:`ResourceMonitor`
measures what a training run actually used (wall-clock, plus the Python heap
of its first epoch via ``tracemalloc``) and raises when the budget is blown;
the trainers check it between epochs and stop a run early.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.exceptions import BudgetExceededError, TrainingError

__all__ = ["TaskBudget", "ResourceUsage", "ResourceMonitor"]

#: ``tracemalloc`` has one peak per process: only one monitor probes at a time.
_PROBE_LOCK = threading.Lock()
_probe_thread: Optional[int] = None  # the thread whose monitor holds the lock

_SIZE_SUFFIXES = {"b": 1, "kb": 1024, "mb": 1024 ** 2, "gb": 1024 ** 3, "tb": 1024 ** 4}
_TIME_SUFFIXES = {"s": 1.0, "sec": 1.0, "m": 60.0, "min": 60.0, "h": 3600.0, "hr": 3600.0}


def _parse_quantity(value, suffixes: Dict[str, float]) -> Optional[float]:
    """Parse ``"50GB"`` / ``"30min"`` / ``2048`` / None into bytes or seconds."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip().lower().replace(" ", "")
    for suffix in sorted(suffixes, key=len, reverse=True):
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * suffixes[suffix]
    return float(text)


@dataclass
class TaskBudget:
    """Memory / time budget plus the optimisation priority.

    ``priority`` is one of ``"ModelScore"`` (maximise expected accuracy within
    the budget) or ``"Time"`` (minimise expected training time among methods
    that fit the budget), mirroring the paper's Fig 8 JSON.
    """

    max_memory_bytes: Optional[float] = None
    max_time_seconds: Optional[float] = None
    priority: str = "ModelScore"

    def __post_init__(self) -> None:
        if self.priority not in ("ModelScore", "Time", "Memory"):
            raise TrainingError(f"unknown budget priority {self.priority!r}")

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "TaskBudget":
        """Build from a TrainGML-style JSON object (case-insensitive keys)."""
        normalised = {str(key).lower().replace("_", "").replace(" ", ""): value
                      for key, value in payload.items()}
        memory = normalised.get("maxmemory", normalised.get("maxmemorybytes"))
        seconds = normalised.get("maxtime", normalised.get("maxtimeseconds"))
        return cls(
            max_memory_bytes=_parse_quantity(memory, _SIZE_SUFFIXES),
            max_time_seconds=_parse_quantity(seconds, _TIME_SUFFIXES),
            priority=str(normalised.get("priority", "ModelScore")),
        )

    def allows_memory(self, bytes_needed: float) -> bool:
        return self.max_memory_bytes is None or bytes_needed <= self.max_memory_bytes

    def allows_time(self, seconds_needed: float) -> bool:
        return self.max_time_seconds is None or seconds_needed <= self.max_time_seconds

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class ResourceUsage:
    """What a training run measured; ``peak_memory_bytes`` is the traced
    Python-heap peak of its first epoch (see :class:`ResourceMonitor`)."""

    elapsed_seconds: float = 0.0
    peak_memory_bytes: int = 0


class ResourceMonitor:
    """Context manager measuring wall-clock time and the Python heap a run needs.

    ``usage.peak_memory_bytes`` is the ``tracemalloc`` peak of a *probe* that
    runs from ``__enter__`` to :meth:`end_probe` (the trainers call it at the
    first epoch's budget check, ``__exit__`` if nobody did): model and
    optimizer state, every batch of one epoch, the first validation pass.  A
    step frees its tape by reference count, so that footprint is stationary
    and tracing the later epochs would only double their cost.

    ``tracemalloc`` is process-global: probes take turns (one lock, held for
    the probe only, so concurrent trainings run their first epochs one after
    the other), a monitor nested in a probe of its own thread reports that
    outer probe's peak, a trace the monitor did not start is left running, and
    what another thread allocates while a probe runs is counted in it.
    """

    def __init__(self, budget: Optional[TaskBudget] = None) -> None:
        self.budget = budget or TaskBudget()
        self.usage = ResourceUsage()
        self._start_time = 0.0
        self._probing = False

    def __enter__(self) -> "ResourceMonitor":
        global _probe_thread
        self._nested = _probe_thread == threading.get_ident()
        if not self._nested:
            _PROBE_LOCK.acquire()
            _probe_thread = threading.get_ident()
            self._tracing_started_here = not tracemalloc.is_tracing()
            if self._tracing_started_here:
                tracemalloc.start()
            else:
                tracemalloc.reset_peak()
        self._probing = True
        self._start_time = time.perf_counter()
        return self

    def end_probe(self) -> None:
        """Record the traced peak and stop tracing; later calls do nothing."""
        global _probe_thread
        if not self._probing:
            return
        self._probing = False
        self.usage.peak_memory_bytes = int(tracemalloc.get_traced_memory()[1])
        if self._nested:
            return
        try:
            if self._tracing_started_here:
                tracemalloc.stop()
        finally:
            _probe_thread = None
            _PROBE_LOCK.release()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.usage.elapsed_seconds = time.perf_counter() - self._start_time
        self.end_probe()

    # -- explicit checks (called between epochs) ------------------------------
    def elapsed(self) -> float:
        return time.perf_counter() - self._start_time

    def check(self) -> None:
        """Raise :class:`BudgetExceededError` when the budget is blown."""
        elapsed = self.elapsed()
        if not self.budget.allows_time(elapsed):
            raise BudgetExceededError(
                f"training exceeded the time budget "
                f"({elapsed:.2f}s > {self.budget.max_time_seconds:.2f}s)",
                elapsed_seconds=elapsed,
                peak_memory_bytes=self.usage.peak_memory_bytes)
        peak = tracemalloc.get_traced_memory()[1] if self._probing \
            else self.usage.peak_memory_bytes
        if not self.budget.allows_memory(float(peak)):
            raise BudgetExceededError(
                f"training exceeded the memory budget "
                f"({peak} B > {self.budget.max_memory_bytes:.0f} B)",
                elapsed_seconds=elapsed, peak_memory_bytes=int(peak))
