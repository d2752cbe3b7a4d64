"""The wire identity of every error, pinned to the table it replaced.

Each exception class declares its own ``code``, ``http_status`` and detail
fields (:class:`repro.exceptions.KGNetError`); the error payload, the HTTP
status and the client's rebuilt exception all read those declarations.  The
table below is what the hand-kept class -> code and code -> status tables
produced before the declarations moved onto the classes: the payload bytes
and the statuses must not move.
"""

from __future__ import annotations

import json

import pytest

import repro.exceptions as X
from repro.kgnet import KGNet
from repro.kgnet.api.errors import (
    error_code,
    error_payload,
    exception_from_payload,
    http_status_for_error,
)
from repro.server.service import ServiceHandler, ServiceRequest
from repro.sparql.results.serialize import ALL_MEDIA_TYPES, require_acceptable

#: The ``ServiceHandler`` body for a query sent with ``Accept: image/png``.
NOT_ACCEPTABLE_BODY = (
    b'{"ok": false, "error": {"code": "NOT_ACCEPTABLE", "message": "no a'
    b"cceptable result format for Accept: 'image/png'; supported: applic"
    b'ation/sparql-results+json, application/sparql-results+xml, text/cs'
    b'v, text/tab-separated-values, application/json, application/n-trip'
    b'les, text/turtle, text/plain", "type": "NotAcceptable", "supported'
    b'": ["application/sparql-results+json", "application/sparql-results'
    b'+xml", "text/csv", "text/tab-separated-values", "application/json"'
    b', "application/n-triples", "text/turtle", "text/plain"]}}'
)

#: (class name, code, HTTP status, ``json.dumps(error_payload(sample))``).
WIRE = [
    ('KGNetError', 'KGNET_ERROR', 500,
     '{"code": "KGNET_ERROR", "message": "boom", "type": "KGNetError"}'),
    ('RDFError', 'RDF_ERROR', 500,
     '{"code": "RDF_ERROR", "message": "boom", "type": "RDFError"}'),
    ('TermError', 'TERM_ERROR', 400,
     '{"code": "TERM_ERROR", "message": "boom", "type": "TermError"}'),
    ('ParseError', 'PARSE_ERROR', 400,
     '{"code": "PARSE_ERROR", "message": "bad token (line 3, column 7)", "type": "ParseError", "details": {"message": "bad token", "line": 3, "column": 7}}'),
    ('SPARQLError', 'SPARQL_ERROR', 400,
     '{"code": "SPARQL_ERROR", "message": "boom", "type": "SPARQLError"}'),
    ('QueryError', 'QUERY_ERROR', 400,
     '{"code": "QUERY_ERROR", "message": "boom", "type": "QueryError"}'),
    ('UpdateError', 'UPDATE_ERROR', 400,
     '{"code": "UPDATE_ERROR", "message": "boom", "type": "UpdateError"}'),
    ('UnsupportedFeatureError', 'UNSUPPORTED_FEATURE', 501,
     '{"code": "UNSUPPORTED_FEATURE", "message": "boom", "type": "UnsupportedFeatureError"}'),
    ('UDFError', 'UDF_ERROR', 400,
     '{"code": "UDF_ERROR", "message": "boom", "type": "UDFError"}'),
    ('QueryInterrupted', 'QUERY_INTERRUPTED', 503,
     '{"code": "QUERY_INTERRUPTED", "message": "stopped", "type": "QueryInterrupted", "details": {"elapsed_seconds": 0.25, "work_units": 7, "rows_emitted": 3}}'),
    ('QueryTimeout', 'QUERY_TIMEOUT', 504,
     '{"code": "QUERY_TIMEOUT", "message": "stopped", "type": "QueryTimeout", "details": {"elapsed_seconds": 0.25, "work_units": 7, "rows_emitted": 3}}'),
    ('QueryCancelled', 'QUERY_CANCELLED', 499,
     '{"code": "QUERY_CANCELLED", "message": "stopped", "type": "QueryCancelled", "details": {"elapsed_seconds": 0.25, "work_units": 7, "rows_emitted": 3}}'),
    ('QueryPreempted', 'QUERY_PREEMPTED', 503,
     '{"code": "QUERY_PREEMPTED", "message": "stopped", "type": "QueryPreempted", "details": {"elapsed_seconds": 0.25, "work_units": 7, "rows_emitted": 3}}'),
    ('GMLError', 'GML_ERROR', 500,
     '{"code": "GML_ERROR", "message": "boom", "type": "GMLError"}'),
    ('AutogradError', 'AUTOGRAD_ERROR', 500,
     '{"code": "AUTOGRAD_ERROR", "message": "boom", "type": "AutogradError"}'),
    ('ShapeError', 'SHAPE_ERROR', 500,
     '{"code": "SHAPE_ERROR", "message": "boom", "type": "ShapeError"}'),
    ('TrainingError', 'TRAINING_ERROR', 500,
     '{"code": "TRAINING_ERROR", "message": "boom", "type": "TrainingError"}'),
    ('BudgetExceededError', 'BUDGET_EXCEEDED', 413,
     '{"code": "BUDGET_EXCEEDED", "message": "too slow", "type": "BudgetExceededError", "details": {"elapsed_seconds": 1.5, "peak_memory_bytes": 2048}}'),
    ('SamplingError', 'SAMPLING_ERROR', 500,
     '{"code": "SAMPLING_ERROR", "message": "boom", "type": "SamplingError"}'),
    ('DatasetError', 'DATASET_ERROR', 500,
     '{"code": "DATASET_ERROR", "message": "boom", "type": "DatasetError"}'),
    ('PlatformError', 'PLATFORM_ERROR', 500,
     '{"code": "PLATFORM_ERROR", "message": "boom", "type": "PlatformError"}'),
    ('MetaSamplingError', 'META_SAMPLING_ERROR', 400,
     '{"code": "META_SAMPLING_ERROR", "message": "boom", "type": "MetaSamplingError"}'),
    ('ModelNotFoundError', 'MODEL_NOT_FOUND', 404,
     '{"code": "MODEL_NOT_FOUND", "message": "boom", "type": "ModelNotFoundError"}'),
    ('ModelSelectionError', 'MODEL_SELECTION_ERROR', 400,
     '{"code": "MODEL_SELECTION_ERROR", "message": "boom", "type": "ModelSelectionError"}'),
    ('InferenceError', 'INFERENCE_ERROR', 500,
     '{"code": "INFERENCE_ERROR", "message": "boom", "type": "InferenceError"}'),
    ('KGMetaError', 'KGMETA_ERROR', 500,
     '{"code": "KGMETA_ERROR", "message": "boom", "type": "KGMetaError"}'),
    ('SPARQLMLError', 'SPARQLML_ERROR', 400,
     '{"code": "SPARQLML_ERROR", "message": "boom", "type": "SPARQLMLError"}'),
    ('APIError', 'API_ERROR', 500,
     '{"code": "API_ERROR", "message": "boom", "type": "APIError"}'),
    ('BadRequestError', 'BAD_REQUEST', 400,
     '{"code": "BAD_REQUEST", "message": "boom", "type": "BadRequestError"}'),
    ('UnknownOperationError', 'UNKNOWN_OPERATION', 404,
     '{"code": "UNKNOWN_OPERATION", "message": "boom", "type": "UnknownOperationError"}'),
    ('CursorError', 'CURSOR_ERROR', 410,
     '{"code": "CURSOR_ERROR", "message": "boom", "type": "CursorError"}'),
    ('ResultStreamCut', 'RESULT_STREAM_CUT', 500,
     '{"code": "RESULT_STREAM_CUT", "message": "boom", "type": "ResultStreamCut"}'),
    ('ServerOverloaded', 'SERVER_OVERLOADED', 503,
     '{"code": "SERVER_OVERLOADED", "message": "busy", "type": "ServerOverloaded", "details": {"retry_after": 2.5}}'),
    ('StorageError', 'STORAGE_ERROR', 500,
     '{"code": "STORAGE_ERROR", "message": "boom", "type": "StorageError"}'),
    ('CorruptCheckpointError', 'CORRUPT_CHECKPOINT', 500,
     '{"code": "CORRUPT_CHECKPOINT", "message": "boom", "type": "CorruptCheckpointError"}'),
    ('WalTruncatedError', 'WAL_TRUNCATED', 410,
     '{"code": "WAL_TRUNCATED", "message": "boom", "type": "WalTruncatedError"}'),
    ('ReplicationError', 'REPLICATION_ERROR', 500,
     '{"code": "REPLICATION_ERROR", "message": "boom", "type": "ReplicationError"}'),
    ('ReadOnlyReplicaError', 'READ_ONLY_REPLICA', 403,
     '{"code": "READ_ONLY_REPLICA", "message": "boom", "type": "ReadOnlyReplicaError"}'),
    # The 406 the service answered with, as its error object.
    ('NotAcceptable', 'NOT_ACCEPTABLE', 406,
     json.dumps(json.loads(NOT_ACCEPTABLE_BODY)["error"])),
]


def sample(cls):
    if cls is X.ParseError:
        return cls("bad token", line=3, column=7)
    if cls is X.BudgetExceededError:
        return cls("too slow", elapsed_seconds=1.5, peak_memory_bytes=2048)
    if issubclass(cls, X.QueryInterrupted):
        return cls("stopped", elapsed_seconds=0.25, work_units=7,
                   rows_emitted=3)
    if cls is X.ServerOverloaded:
        return cls("busy", retry_after=2.5)
    if cls is X.NotAcceptable:
        try:
            require_acceptable("image/png", ALL_MEDIA_TYPES)
        except X.NotAcceptable as exc:
            return exc
    return cls("boom")


def test_the_table_covers_every_class():
    declared = {name for name, cls in vars(X).items()
                if isinstance(cls, type) and issubclass(cls, X.KGNetError)}
    assert {row[0] for row in WIRE} == declared


@pytest.mark.parametrize("name,code,status,payload", WIRE,
                         ids=[row[0] for row in WIRE])
def test_wire_identity_is_pinned(name, code, status, payload):
    cls = getattr(X, name)
    assert (cls.code, cls.http_status) == (code, status)
    assert (error_code(cls), http_status_for_error(code)) == (code, status)
    error = sample(cls)
    assert json.dumps(error_payload(error)) == payload
    rebuilt = exception_from_payload(json.loads(payload))
    assert type(rebuilt) is cls
    assert str(rebuilt) == str(error)
    assert json.dumps(error_payload(rebuilt)) == payload


def test_not_acceptable_body_is_pinned():
    handler = ServiceHandler(KGNet().api)
    response = handler.handle(ServiceRequest(
        "GET", "/sparql?query=ASK%7B%7D", headers={"Accept": "image/png"}))
    assert response.status == 406
    assert response.read_body() == NOT_ACCEPTABLE_BODY
    rebuilt = exception_from_payload(json.loads(NOT_ACCEPTABLE_BODY)["error"])
    assert type(rebuilt) is X.NotAcceptable
    assert rebuilt.offered == ALL_MEDIA_TYPES


def test_an_undeclared_subclass_travels_as_its_ancestor():
    class Missing(X.ModelNotFoundError):
        pass
    error = Missing("gone")
    assert (error_code(error), error.http_status) == ("MODEL_NOT_FOUND", 404)
    assert type(exception_from_payload(error_payload(error))) \
        is X.ModelNotFoundError
