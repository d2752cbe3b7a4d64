"""Task budgets and the ledger of a training run.

A SPARQL-ML ``INSERT`` (TrainGML) request carries a *task budget* — maximum
memory, maximum time and an optimisation priority (paper Fig 8).  The
:class:`TaskBudget` models that JSON object; :class:`ResourceMonitor` is one
run's clock and memory ledger: the trainer books the bytes each step holds,
counted from the arrays themselves, and checks the budget against the
ledger's peak and the clock after every epoch, stopping a run early when
it is blown.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.exceptions import BudgetExceededError, TrainingError

__all__ = ["TaskBudget", "ResourceUsage", "ResourceMonitor"]

_SIZE_SUFFIXES = {"b": 1, "kb": 1024, "mb": 1024 ** 2, "gb": 1024 ** 3, "tb": 1024 ** 4}
_TIME_SUFFIXES = {"s": 1.0, "sec": 1.0, "m": 60.0, "min": 60.0, "h": 3600.0, "hr": 3600.0}


def _parse_quantity(value, suffixes: Dict[str, float]):
    """Parse ``"50GB"`` / ``"30min"`` into bytes or seconds; anything but a
    string is left for :class:`TaskBudget` to accept or refuse."""
    if not isinstance(value, str):
        return value
    text = value.strip().lower().replace(" ", "")
    for suffix in sorted(suffixes, key=len, reverse=True):
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * suffixes[suffix]
    return float(text)


@dataclass
class TaskBudget:
    """Memory / time budget plus the optimisation priority.

    ``priority`` is one of ``"ModelScore"`` (maximise expected accuracy within
    the budget), ``"Time"`` (minimise expected training time among methods
    that fit the budget) or ``"Memory"`` (minimise expected memory among
    methods that fit the time budget), mirroring the paper's Fig 8 JSON.  A
    limit is ``None`` (no limit) or a non-negative number.
    """

    max_memory_bytes: Optional[float] = None
    max_time_seconds: Optional[float] = None
    priority: str = "ModelScore"

    def __post_init__(self) -> None:
        if self.priority not in ("ModelScore", "Time", "Memory"):
            raise TrainingError(f"unknown budget priority {self.priority!r}")
        for name in ("max_memory_bytes", "max_time_seconds"):
            limit = getattr(self, name)
            if limit is None:
                continue
            if isinstance(limit, bool) or not isinstance(limit, numbers.Real) \
                    or math.isnan(limit) or limit < 0:
                raise TrainingError(
                    f"budget {name} must be a non-negative number, not {limit!r}")
            setattr(self, name, float(limit))

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
    """What a training run measured: its wall-clock seconds, and
    ``peak_memory_bytes``, the largest step its ledger booked (see
    :class:`ResourceMonitor`)."""

    elapsed_seconds: float = 0.0
    peak_memory_bytes: int = 0


class ResourceMonitor:
    """The clock and the memory ledger of one training run.

    The clock runs only inside ``with monitor:`` blocks -- the trainer
    enters one per epoch -- so ``usage.elapsed_seconds`` counts the run's
    own epochs and nothing done between them.  The trainer books each
    optimisation step in the ledger (:meth:`book`): the bytes of the arrays
    the step holds at its peak -- the parameters with their gradients and
    Adam's two moments, the batch, the tape ``Tensor.backward`` walks (node
    data and the gradients it produces) and the method's step buffers.
    ``usage.peak_memory_bytes`` is the largest step booked.  It is a sum of
    array sizes, so a run reports the same peak on every machine and beside
    any other run; the temporaries numpy makes inside one op, arrays only a
    backward closure holds and evaluation passes are not in it.  Nothing is
    traced, and no state is shared between monitors.
    """

    def __init__(self, budget: Optional[TaskBudget] = None) -> None:
        self.budget = budget or TaskBudget()
        self.usage = ResourceUsage()
        self._entered_at: Optional[float] = None

    def __enter__(self) -> "ResourceMonitor":
        self._entered_at = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.usage.elapsed_seconds = self.elapsed()
        self._entered_at = None

    def book(self, step_bytes: int) -> None:
        """Book one step that held ``step_bytes`` at its peak."""
        self.usage.peak_memory_bytes = max(self.usage.peak_memory_bytes, step_bytes)

    # -- explicit checks (called between epochs) ------------------------------
    def elapsed(self) -> float:
        """Seconds on the clock: the blocks left so far and the open one."""
        if self._entered_at is None:
            return self.usage.elapsed_seconds
        return self.usage.elapsed_seconds + time.perf_counter() - self._entered_at

    def check(self) -> None:
        """Raise :class:`BudgetExceededError` when the budget is blown."""
        elapsed, peak = self.elapsed(), self.usage.peak_memory_bytes
        if not self.budget.allows_time(elapsed):
            blown = f"time budget ({elapsed:.2f}s > {self.budget.max_time_seconds:.2f}s)"
        elif not self.budget.allows_memory(float(peak)):
            blown = f"memory budget ({peak} B > {self.budget.max_memory_bytes:.0f} B)"
        else:
            return
        raise BudgetExceededError(f"training exceeded the {blown}",
                                  elapsed_seconds=elapsed, peak_memory_bytes=peak)
