"""Training utilities: budgets, cost estimators, metrics and trainers."""

from repro.gml.train.budget import (
    ResourceMonitor,
    ResourceUsage,
    TaskBudget,
)
from repro.gml.train.estimator import (
    METHOD_PROFILES,
    CostEstimate,
    MethodCostEstimator,
    sampling_plan,
)
from repro.gml.train.metrics import (
    accuracy,
    classification_report,
)
from repro.gml.train.trainer import (
    FullBatchNodeClassificationTrainer,
    KGETrainer,
    MorsETrainer,
    SamplingNodeClassificationTrainer,
    TrainingResult,
)

__all__ = [
    "ResourceMonitor",
    "ResourceUsage",
    "TaskBudget",
    "METHOD_PROFILES",
    "CostEstimate",
    "MethodCostEstimator",
    "sampling_plan",
    "accuracy",
    "classification_report",
    "FullBatchNodeClassificationTrainer",
    "KGETrainer",
    "MorsETrainer",
    "SamplingNodeClassificationTrainer",
    "TrainingResult",
]
