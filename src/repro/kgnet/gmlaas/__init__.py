"""GML-as-a-Service: training manager, model store, embedding indexes, inference."""

from repro.kgnet.gmlaas.embedding_store import FlatIndex
from repro.kgnet.gmlaas.inference_manager import GMLInferenceManager
from repro.kgnet.gmlaas.method_selector import MethodSelection, MethodSelector
from repro.kgnet.gmlaas.model_store import ModelStore, StoredModel
from repro.kgnet.gmlaas.service import GMLaaS, TrainResponse
from repro.kgnet.gmlaas.training_manager import (
    GMLTrainingManager,
    TrainingManagerConfig,
)

__all__ = [
    "FlatIndex",
    "GMLInferenceManager",
    "MethodSelection",
    "MethodSelector",
    "ModelStore",
    "StoredModel",
    "GMLaaS",
    "TrainResponse",
    "GMLTrainingManager",
    "TrainingManagerConfig",
]
