"""Optimal GML method selection under a task budget (paper §IV-A, Fig 6).

Given the transformed task dataset and a :class:`TaskBudget`, the selector
estimates memory and time for every applicable method (via
:class:`~repro.gml.train.estimator.MethodCostEstimator`) and picks the
near-optimal one.  The paper frames this as a small integer-programming
problem; with a handful of candidate methods it is solved exactly by
enumerating the 0/1 choices — the objective and constraints are the same:

* ``Priority = ModelScore``: maximise the expected accuracy prior subject to
  the memory and time budgets,
* ``Priority = Time``: minimise estimated training time subject to the
  memory budget (and any time budget),
* ``Priority = Memory``: minimise estimated memory subject to the time budget.

If no method fits the budget the selector falls back to the cheapest method
so a model can still be produced, and flags the violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.exceptions import ModelSelectionError
from repro.gml.data import GraphData, TriplesData
from repro.gml.train.budget import TaskBudget
from repro.gml.train.estimator import (
    METHOD_PROFILES,
    CostEstimate,
    MethodCostEstimator,
)

__all__ = ["MethodSelection", "MethodSelector"]


@dataclass
class MethodSelection:
    """The chosen method plus the full candidate ranking (for reporting)."""

    method: str
    estimate: CostEstimate
    within_budget: bool
    objective: str
    candidates: List[CostEstimate] = field(default_factory=list)


class MethodSelector:
    """Chooses the near-optimal GML method for a task under a budget."""

    def __init__(self, estimator: Optional[MethodCostEstimator] = None) -> None:
        self.estimator = estimator or MethodCostEstimator()

    def applicable_methods(self, task_type: str) -> List[str]:
        return [name for name, profile in METHOD_PROFILES.items()
                if task_type in profile.supported_tasks]

    def select(self, task_type: str, data: Union[GraphData, TriplesData],
               budget: Optional[TaskBudget] = None,
               candidate_methods: Optional[Sequence[str]] = None) -> MethodSelection:
        """Pick a method for ``task_type`` trained on ``data`` under ``budget``."""
        budget = budget or TaskBudget()
        methods = list(candidate_methods) if candidate_methods else \
            self.applicable_methods(task_type)
        if not methods:
            raise ModelSelectionError(f"no GML method supports task {task_type!r}")
        unknown = [m for m in methods if m not in METHOD_PROFILES]
        if unknown:
            raise ModelSelectionError(f"unknown GML methods: {unknown}")

        estimates = [self.estimator.estimate(method, data)
                     for method in methods]
        feasible = [estimate for estimate in estimates
                    if budget.allows_memory(estimate.memory_bytes)
                    and budget.allows_time(estimate.time_seconds)]

        objective = budget.priority
        if feasible:
            chosen = self._optimise(feasible, objective)
            within_budget = True
        else:
            # Fall back to the least memory-hungry candidate; its trainer
            # still checks the budget between epochs and stops early.
            chosen = min(estimates, key=lambda e: (e.memory_bytes, e.time_seconds))
            within_budget = False
        return MethodSelection(method=chosen.method, estimate=chosen,
                               within_budget=within_budget, objective=objective,
                               candidates=sorted(estimates,
                                                 key=lambda e: -e.accuracy_prior))

    @staticmethod
    def _optimise(candidates: List[CostEstimate], objective: str) -> CostEstimate:
        """Exact solution of the one-of-N selection problem."""
        if objective == "Time":
            return min(candidates, key=lambda e: (e.time_seconds, -e.accuracy_prior))
        if objective == "Memory":
            return min(candidates, key=lambda e: (e.memory_bytes, -e.accuracy_prior))
        # ModelScore: maximise prior accuracy, break ties by time then memory.
        return max(candidates,
                   key=lambda e: (e.accuracy_prior, -e.time_seconds, -e.memory_bytes))
