"""Classification metrics (accuracy, F1); ranking metrics are
:func:`repro.gml.kge.base.ranking_metrics`."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = [
    "accuracy",
    "classification_report",
]


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions (0.0 on empty input)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        return 0.0
    return float((y_true == y_pred).mean())


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray,
                     num_classes: Optional[int] = None) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if num_classes is None:
        num_classes = int(max(y_true.max(initial=0), y_pred.max(initial=0))) + 1
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    for true, pred in zip(y_true, y_pred):
        if 0 <= true < num_classes and 0 <= pred < num_classes:
            matrix[true, pred] += 1
    return matrix


def f1_score(y_true: np.ndarray, y_pred: np.ndarray,
             average: str = "macro", num_classes: Optional[int] = None) -> float:
    """Macro- or micro-averaged F1."""
    matrix = confusion_matrix(y_true, y_pred, num_classes=num_classes)
    if average == "micro":
        true_positive = np.trace(matrix)
        total = matrix.sum()
        return float(true_positive / total) if total else 0.0
    f1_values = []
    for class_id in range(matrix.shape[0]):
        true_positive = matrix[class_id, class_id]
        false_positive = matrix[:, class_id].sum() - true_positive
        false_negative = matrix[class_id, :].sum() - true_positive
        if true_positive == 0 and false_positive == 0 and false_negative == 0:
            continue
        precision = true_positive / (true_positive + false_positive) \
            if (true_positive + false_positive) else 0.0
        recall = true_positive / (true_positive + false_negative) \
            if (true_positive + false_negative) else 0.0
        if precision + recall == 0:
            f1_values.append(0.0)
        else:
            f1_values.append(2 * precision * recall / (precision + recall))
    return float(np.mean(f1_values)) if f1_values else 0.0


def classification_report(y_true: np.ndarray, y_pred: np.ndarray,
                          num_classes: Optional[int] = None) -> Dict[str, float]:
    return {
        "accuracy": accuracy(y_true, y_pred),
        "f1_macro": f1_score(y_true, y_pred, average="macro", num_classes=num_classes),
        "f1_micro": f1_score(y_true, y_pred, average="micro", num_classes=num_classes),
    }
