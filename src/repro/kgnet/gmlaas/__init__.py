"""GML-as-a-Service: training manager, model store, embedding index.

The method selector (:mod:`repro.kgnet.gmlaas.method_selector`) and the
model and trainer modules it builds from load on the first TrainGML, not
with this package."""

from repro.kgnet.gmlaas.embedding_store import FlatIndex
from repro.kgnet.gmlaas.model_store import ModelStore
from repro.kgnet.gmlaas.service import GMLaaS, TrainResponse
from repro.kgnet.gmlaas.training_manager import (
    GMLTrainingManager,
    TrainingManagerConfig,
)

__all__ = [
    "FlatIndex",
    "ModelStore",
    "GMLaaS",
    "TrainResponse",
    "GMLTrainingManager",
    "TrainingManagerConfig",
]
