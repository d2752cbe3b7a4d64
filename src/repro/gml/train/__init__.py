"""Training utilities: budgets, metrics and trainers."""

from repro.gml.train.budget import (
    ResourceMonitor,
    ResourceUsage,
    TaskBudget,
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
    "accuracy",
    "classification_report",
    "FullBatchNodeClassificationTrainer",
    "KGETrainer",
    "MorsETrainer",
    "SamplingNodeClassificationTrainer",
    "TrainingResult",
]
