"""Versioned, transport-agnostic request/response envelopes.

The paper's KGNet is a *service* platform: the RDF engine's UDFs and the
GMLaaS endpoints exchange JSON over HTTP.  These envelopes are that wire
contract in-process: every operation — load, sparql, train, infer, delete,
list-models, stats — travels as an :class:`APIRequest` and comes back as an
:class:`APIResponse`, both of which round-trip through plain JSON dicts so
any transport (direct call, HTTP, message queue) can carry them.

Responses have exactly two variants:

* ``ok`` — ``result`` holds the JSON-serialisable payload, ``error`` is None,
* ``error`` — ``error`` holds ``{code, message, type[, details]}`` with a
  stable code from :mod:`repro.kgnet.api.errors`, ``result`` is None.

When the router runs in-process it additionally attaches the *rich* Python
result (or the original exception) as :attr:`APIResponse.attachment`; the
attachment never crosses a serialisation boundary and is simply absent after
a JSON round trip.

A projection may carry parts that are already JSON — SELECT rows written
straight from term ids by the result writers — as :class:`RawJSON`.
:meth:`APIResponse.encode` splices them into the wire body verbatim;
:attr:`APIResponse.result` and :meth:`APIResponse.to_dict` parse them back,
so an in-process reader sees the same plain JSON values a client does.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Optional, Union

from repro.exceptions import BadRequestError
from repro.kgnet.api.errors import error_payload, exception_from_payload

__all__ = ["API_VERSION", "APIRequest", "APIResponse", "RawJSON"]

#: The protocol version every envelope carries.  Bump the suffix on breaking
#: changes; envelopes carrying any other version string are rejected.
API_VERSION = "kgnet/v1"

_REQUEST_IDS = itertools.count(1)


class RawJSON(bytes):
    """One already-encoded JSON value (UTF-8), spliced into a body as is."""

    __slots__ = ()


def encode_json(value: object) -> bytes:
    """``json.dumps(value)`` as UTF-8, with every :class:`RawJSON` spliced in.

    Fragments are found by descending into dicts only (keys must be
    strings there).  A value holding none is exactly ``json.dumps(value)``;
    in a dict that holds one, the members holding fragments come last, after
    one ``json.dumps`` of the others.
    """
    if isinstance(value, RawJSON):
        return value
    spliced = _spliced(value) if isinstance(value, dict) else None
    return json.dumps(value).encode("utf-8") if spliced is None else spliced


def _spliced(value: dict) -> Optional[bytes]:
    """:func:`encode_json` of ``value`` if it holds a RawJSON, else None."""
    plain = {}
    members = []
    for key, item in value.items():
        if isinstance(item, RawJSON):
            encoded: Optional[bytes] = item
        elif isinstance(item, dict):
            encoded = _spliced(item)
        else:
            encoded = None
        if encoded is None:
            plain[key] = item
        else:
            members.append(encode_basestring_ascii(key).encode("ascii")
                           + b": " + encoded)
    if not members:
        return None
    if not plain:
        return b"{" + b", ".join(members) + b"}"
    return (json.dumps(plain).encode("utf-8")[:-1] + b", "
            + b", ".join(members) + b"}")


def _parse_raw(value: object) -> None:
    """Replace every :class:`RawJSON` in a dict tree by its parsed value."""
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, RawJSON):
                value[key] = json.loads(item)
            else:
                _parse_raw(item)


def _check_mapping(value: object, what: str) -> Dict[str, object]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise BadRequestError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _check_version(version: object) -> str:
    if not isinstance(version, str) or not version:
        raise BadRequestError("envelope misses 'api_version'")
    if version != API_VERSION:
        raise BadRequestError(
            f"unsupported api_version {version!r} (this endpoint speaks {API_VERSION})")
    return version


@dataclass
class APIRequest:
    """One operation request: ``{op, params, request_id, api_version}``."""

    op: str
    params: Dict[str, object] = field(default_factory=dict)
    request_id: str = ""
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        if not self.request_id:
            self.request_id = f"req-{next(_REQUEST_IDS)}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "api_version": self.api_version,
            "op": self.op,
            "request_id": self.request_id,
            "params": self.params,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "APIRequest":
        payload = _check_mapping(payload, "request envelope")
        op = payload.get("op")
        if not isinstance(op, str) or not op:
            raise BadRequestError("request envelope misses 'op'")
        return cls(
            op=op,
            params=_check_mapping(payload.get("params"), "'params'"),
            request_id=str(payload.get("request_id") or ""),
            api_version=_check_version(payload.get("api_version", API_VERSION)),
        )

    @classmethod
    def from_json(cls, text: str) -> "APIRequest":
        try:
            payload = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"request envelope is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


class APIResponse:
    """The outcome of one operation, in its ``ok`` or ``error`` variant.

    ``result`` may be constructed lazily: handlers can hand the router a
    zero-argument callable instead of a dict, and the JSON projection is only
    computed when ``result`` is first read or the envelope is encoded (a
    serialising transport always encodes it; the in-process facade, which
    consumes :attr:`attachment`, never pays for it).
    """

    def __init__(self, ok: bool, op: str, request_id: str,
                 api_version: str = API_VERSION,
                 result: Union[None, Dict[str, object],
                               Callable[[], Dict[str, object]]] = None,
                 error: Optional[Dict[str, object]] = None,
                 meta: Optional[Dict[str, object]] = None,
                 attachment: object = None) -> None:
        self.ok = ok
        self.op = op
        self.request_id = request_id
        self.api_version = api_version
        self._result = result
        #: Whether ``_result``'s RawJSON parts have been parsed back.
        self._parsed = False
        self.error = error
        #: Timing / routing metadata (``elapsed_seconds`` is always present).
        self.meta: Dict[str, object] = dict(meta or {})
        #: In-process only: the rich Python result (ok) or the original
        #: exception (error).  Never serialised.
        self.attachment = attachment

    def projection(self) -> Optional[Dict[str, object]]:
        """The result as projected, :class:`RawJSON` parts still encoded."""
        if callable(self._result):
            self._result = self._result()
        return self._result

    @property
    def result(self) -> Optional[Dict[str, object]]:
        """The result as plain JSON values (RawJSON parsed back once)."""
        result = self.projection()
        if not self._parsed:
            _parse_raw(result)
            self._parsed = True
        return result

    @classmethod
    def success(cls, request: APIRequest,
                result: Union[Dict[str, object], Callable[[], Dict[str, object]]],
                attachment: object = None,
                meta: Optional[Dict[str, object]] = None) -> "APIResponse":
        return cls(ok=True, op=request.op, request_id=request.request_id,
                   result=result, meta=dict(meta or {}), attachment=attachment)

    @classmethod
    def failure(cls, request: APIRequest, error: BaseException) -> "APIResponse":
        return cls(ok=False, op=request.op, request_id=request.request_id,
                   error=error_payload(error), attachment=error)

    def _document(self, result: Optional[Dict[str, object]]) -> Dict[str, object]:
        return {
            "api_version": self.api_version,
            "ok": self.ok,
            "op": self.op,
            "request_id": self.request_id,
            "result": result,
            "error": self.error,
            "meta": self.meta,
        }

    def to_dict(self) -> Dict[str, object]:
        return self._document(self.result)

    def encode(self) -> bytes:
        """The envelope as a JSON body, :class:`RawJSON` parts spliced in."""
        return encode_json(self._document(self.projection()))

    def to_json(self) -> str:
        return self.encode().decode("utf-8")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "APIResponse":
        payload = _check_mapping(payload, "response envelope")
        if "ok" not in payload:
            raise BadRequestError("response envelope misses 'ok'")
        result = payload.get("result")
        error = payload.get("error")
        return cls(
            ok=bool(payload["ok"]),
            op=str(payload.get("op") or ""),
            request_id=str(payload.get("request_id") or ""),
            api_version=_check_version(payload.get("api_version", API_VERSION)),
            result=result if isinstance(result, dict) else None,
            error=error if isinstance(error, dict) else None,
            meta=_check_mapping(payload.get("meta"), "'meta'"),
        )

    @classmethod
    def from_json(cls, text: str) -> "APIResponse":
        try:
            payload = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"response envelope is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def raise_for_error(self) -> "APIResponse":
        """Raise the error the envelope carries; no-op on the ok variant.

        In-process the original exception object is re-raised; after a JSON
        round trip the most specific class is rebuilt from the stable code.
        """
        if self.ok:
            return self
        if isinstance(self.attachment, BaseException):
            raise self.attachment
        raise exception_from_payload(self.error)

    @property
    def elapsed_seconds(self) -> float:
        return float(self.meta.get("elapsed_seconds", 0.0))

    def __repr__(self) -> str:
        status = "ok" if self.ok else (self.error or {}).get("code", "error")
        return (f"<APIResponse op={self.op!r} request_id={self.request_id!r} "
                f"{status}>")
