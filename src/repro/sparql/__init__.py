"""SPARQL engine substrate (parser, evaluator, endpoint, UDF registry).

``ReferenceQueryEvaluator``, the differential oracle the tests and benchmark
workloads check answers against, is no production path: it loads on first
access of the name, so a server never imports it.
"""

from repro.sparql.tokenizer import Token, tokenize
from repro.sparql.parser import SPARQLParser, parse, parse_query, parse_update
from repro.sparql.ast import (
    AlternativePath,
    ClosurePattern,
    InversePath,
    LinkPath,
    MulPath,
    NegatedPath,
    NegatedPathPattern,
    PathExpr,
    PathPattern,
    SequencePath,
)
from repro.sparql.paths import (
    invert_path,
    is_fresh_path_variable,
    normalize_path,
    rewrite_path_pattern,
)
from repro.sparql.serializer import serialize_path, serialize_query
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.plan import QueryPlan
from repro.sparql.optimizer import reorder_patterns
from repro.sparql.execution import ExecutionContext, StreamingResult
from repro.sparql.functions import (
    EvaluationContext,
    OpaqueValue,
    UDFRegistry,
    compile_expression,
    compile_filter,
    effective_boolean_value,
    evaluate_expression,
)
from repro.sparql.results import ResultSet, Solution
from repro.sparql.endpoint import PlanCache, SPARQLEndpoint


def __getattr__(name: str):
    if name == "ReferenceQueryEvaluator":
        from repro.sparql.reference import ReferenceQueryEvaluator
        return ReferenceQueryEvaluator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Token",
    "tokenize",
    "SPARQLParser",
    "parse",
    "parse_query",
    "parse_update",
    "PathExpr",
    "LinkPath",
    "InversePath",
    "SequencePath",
    "AlternativePath",
    "MulPath",
    "NegatedPath",
    "PathPattern",
    "ClosurePattern",
    "NegatedPathPattern",
    "invert_path",
    "normalize_path",
    "rewrite_path_pattern",
    "is_fresh_path_variable",
    "serialize_path",
    "serialize_query",
    "QueryEvaluator",
    "QueryPlan",
    "ExecutionContext",
    "StreamingResult",
    "ReferenceQueryEvaluator",
    "reorder_patterns",
    "EvaluationContext",
    "OpaqueValue",
    "UDFRegistry",
    "compile_expression",
    "compile_filter",
    "effective_boolean_value",
    "evaluate_expression",
    "ResultSet",
    "Solution",
    "PlanCache",
    "SPARQLEndpoint",
]
