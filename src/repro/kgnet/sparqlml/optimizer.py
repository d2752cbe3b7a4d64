"""SPARQL-ML query optimization (paper §IV-B.3).

Two decisions are optimized for every user-defined predicate:

1. **Model selection** — among the KGMeta models matching the predicate's
   constraints, pick the one that maximises accuracy (less an optional
   weight on inference time) subject to an inference-time bound and an
   accuracy floor.  With a handful of candidates the 0/1 integer program is
   solved exactly by enumeration.

2. **Execution-plan selection** — evaluate the user-defined predicate either
   with one UDF call *per target instance* (paper Fig 11) or with a single
   call that materialises a dictionary of all predictions and per-row lookups
   (paper Fig 12).  The optimizer minimises the modelled cost
   ``#HTTP_calls * call_overhead + dictionary_entries * entry_cost`` using the
   query's target-variable cardinality and the model's prediction cardinality
   obtained from KGMeta / the data KG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import ModelNotFoundError, ModelSelectionError
from repro.kgnet.kgmeta.governor import ModelMetadata

__all__ = ["ModelSelectionObjective", "PlanChoice", "SPARQLMLOptimizer"]

#: Cost model constants: one HTTP round trip, the marginal cost of one
#: dictionary entry (serialisation + lookup), and the fixed cost of the
#: single dictionary-building call (it returns a larger payload).
HTTP_CALL_COST = 1.0
DICTIONARY_ENTRY_COST = 0.01
DICTIONARY_CALL_COST = 5.0


@dataclass
class ModelSelectionObjective:
    """What to optimise when several models satisfy a predicate.

    The chosen model scores best on ``accuracy - time_weight *
    inference_seconds`` (the faster one on a tie) among the models within
    both bounds, or among all of them when none is.
    """

    max_inference_seconds: Optional[float] = None
    min_accuracy: Optional[float] = None
    time_weight: float = 0.0


@dataclass
class PlanChoice:
    """The chosen physical plan for one user-defined predicate."""

    plan: str                      # "per_instance" or "dictionary"
    estimated_http_calls: int
    estimated_dictionary_entries: int
    target_cardinality: int
    model_cardinality: int
    estimated_cost: float
    alternatives: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "plan": self.plan,
            "estimated_http_calls": self.estimated_http_calls,
            "estimated_dictionary_entries": self.estimated_dictionary_entries,
            "target_cardinality": self.target_cardinality,
            "model_cardinality": self.model_cardinality,
            "estimated_cost": round(self.estimated_cost, 6),
            "alternatives": {k: round(v, 6) for k, v in self.alternatives.items()},
        }


class SPARQLMLOptimizer:
    """Model selection and plan selection for SPARQL-ML SELECT queries."""

    # ------------------------------------------------------------------
    # Model selection
    # ------------------------------------------------------------------
    def select_model(self, candidates: List[ModelMetadata],
                     objective: Optional[ModelSelectionObjective] = None
                     ) -> ModelMetadata:
        """Pick the near-optimal model among KGMeta candidates."""
        if not candidates:
            raise ModelNotFoundError(
                "no trained model in KGMeta satisfies the user-defined predicate")
        objective = objective or ModelSelectionObjective()
        feasible = []
        for candidate in candidates:
            if objective.max_inference_seconds is not None and \
                    candidate.inference_seconds > objective.max_inference_seconds:
                continue
            if objective.min_accuracy is not None and \
                    candidate.accuracy < objective.min_accuracy:
                continue
            feasible.append(candidate)
        # Constraints that exclude everything fall back to the full pool
        # (the paper's "near-optimal" behaviour) rather than failing.
        pool = feasible or candidates

        def score(candidate: ModelMetadata) -> float:
            return candidate.accuracy - objective.time_weight * candidate.inference_seconds

        return max(pool, key=lambda c: (score(c), -c.inference_seconds))

    # ------------------------------------------------------------------
    # Plan selection
    # ------------------------------------------------------------------
    def choose_plan(self, target_cardinality: int,
                    model_cardinality: int,
                    force_plan: Optional[str] = None) -> PlanChoice:
        """Pick per-instance UDF calls vs. the single-dictionary plan.

        ``target_cardinality`` is the number of distinct bindings of the
        variable the UDF will be applied to (e.g. ``|?paper|``);
        ``model_cardinality`` is the number of predictions the model can
        produce (KGMeta's ``kgnet:modelCardinality``), which bounds the
        dictionary size.
        """
        target_cardinality = max(0, int(target_cardinality))
        model_cardinality = max(0, int(model_cardinality))
        per_instance_cost = target_cardinality * HTTP_CALL_COST
        dictionary_cost = (DICTIONARY_CALL_COST
                           + model_cardinality * DICTIONARY_ENTRY_COST)
        alternatives = {"per_instance": per_instance_cost,
                        "dictionary": dictionary_cost}
        if force_plan is not None:
            if force_plan not in alternatives:
                raise ModelSelectionError(f"unknown plan {force_plan!r}")
            plan = force_plan
        else:
            plan = "per_instance" if per_instance_cost <= dictionary_cost else "dictionary"
        return PlanChoice(
            plan=plan,
            estimated_http_calls=target_cardinality if plan == "per_instance" else 1,
            estimated_dictionary_entries=0 if plan == "per_instance" else model_cardinality,
            target_cardinality=target_cardinality,
            model_cardinality=model_cardinality,
            estimated_cost=alternatives[plan],
            alternatives=alternatives,
        )
