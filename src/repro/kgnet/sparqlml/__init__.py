"""SPARQL-ML as a Service: parser, optimizer, rewriter, UDFs and service."""

from repro.kgnet.sparqlml.parser import (
    DeleteModelRequest,
    SPARQLMLParser,
    TrainGMLRequest,
    UserDefinedPredicate,
)
from repro.kgnet.sparqlml.optimizer import (
    ModelSelectionObjective,
    PlanChoice,
    SPARQLMLOptimizer,
)
from repro.kgnet.sparqlml.rewriter import RewrittenQuery, SPARQLMLRewriter
from repro.kgnet.sparqlml.udf import register_udfs
from repro.kgnet.sparqlml.service import (
    DeleteReport,
    SelectReport,
    SPARQLMLService,
    TrainReport,
)

__all__ = [
    "DeleteModelRequest",
    "SPARQLMLParser",
    "TrainGMLRequest",
    "UserDefinedPredicate",
    "ModelSelectionObjective",
    "PlanChoice",
    "SPARQLMLOptimizer",
    "RewrittenQuery",
    "SPARQLMLRewriter",
    "register_udfs",
    "DeleteReport",
    "SelectReport",
    "SPARQLMLService",
    "TrainReport",
]
