"""GML-as-a-Service: training manager, method selector, model store, embedding index."""

from repro.kgnet.gmlaas.embedding_store import FlatIndex
from repro.kgnet.gmlaas.method_selector import MethodSelection, MethodSelector
from repro.kgnet.gmlaas.model_store import ModelStore
from repro.kgnet.gmlaas.service import GMLaaS, TrainResponse
from repro.kgnet.gmlaas.training_manager import (
    GMLTrainingManager,
    TrainingManagerConfig,
)

__all__ = [
    "FlatIndex",
    "MethodSelection",
    "MethodSelector",
    "ModelStore",
    "GMLaaS",
    "TrainResponse",
    "GMLTrainingManager",
    "TrainingManagerConfig",
]
