"""KGNet: the paper's contribution — GMLaaS + SPARQL-ML on top of RDF engines."""

from repro.gml.tasks import TaskSpec, TaskType
from repro.kgnet.meta_sampler import (
    MetaSampler,
    MetaSamplingConfig,
)
from repro.kgnet.kgmeta import KGMetaGovernor, ModelMetadata, ontology
from repro.kgnet.gmlaas import (
    GMLaaS,
    GMLTrainingManager,
    MethodSelection,
    MethodSelector,
    ModelStore,
    TrainingManagerConfig,
    TrainResponse,
)
from repro.kgnet.sparqlml import (
    DeleteReport,
    ModelSelectionObjective,
    PlanChoice,
    SelectReport,
    SPARQLMLOptimizer,
    SPARQLMLParser,
    SPARQLMLRewriter,
    SPARQLMLService,
    TrainGMLRequest,
    TrainReport,
    UserDefinedPredicate,
    register_udfs,
)
from repro.kgnet.api import (
    API_VERSION,
    APIClient,
    APIRequest,
    APIResponse,
    APIRouter,
)
from repro.kgnet.platform import KGNet

__all__ = [
    "API_VERSION",
    "APIClient",
    "APIRequest",
    "APIResponse",
    "APIRouter",
    "TaskSpec",
    "TaskType",
    "MetaSampler",
    "MetaSamplingConfig",
    "KGMetaGovernor",
    "ModelMetadata",
    "ontology",
    "GMLaaS",
    "GMLTrainingManager",
    "MethodSelection",
    "MethodSelector",
    "ModelStore",
    "TrainingManagerConfig",
    "TrainResponse",
    "DeleteReport",
    "ModelSelectionObjective",
    "PlanChoice",
    "SelectReport",
    "SPARQLMLOptimizer",
    "SPARQLMLParser",
    "SPARQLMLRewriter",
    "SPARQLMLService",
    "TrainGMLRequest",
    "TrainReport",
    "UserDefinedPredicate",
    "register_udfs",
    "KGNet",
]
