"""Stable error codes for the versioned service API.

Every exception class in :mod:`repro.exceptions` declares its own wire
identity — ``code``, ``http_status`` and the fields that travel with it (see
:class:`~repro.exceptions.KGNetError`).  This module only reads those
declarations: clients match on ``error["code"]`` strings, never on Python
class names.

The mapping is bidirectional: :func:`error_payload` turns a raised exception
into the JSON ``error`` object of an :class:`~repro.kgnet.api.envelopes.APIResponse`,
and :func:`exception_from_payload` reconstructs the most specific exception
class on the client side so ``raise_for_error()`` surfaces the same type the
server raised.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro import exceptions as X

__all__ = [
    "HTTP_STATUS_BY_CODE",
    "INTERNAL_ERROR",
    "error_code",
    "error_payload",
    "exception_from_payload",
    "http_status_for_error",
]

#: Exception class -> stable error code, for every class that declares one.
ERROR_CODES: Dict[Type[BaseException], str] = {
    cls: cls.code for cls in vars(X).values()
    if isinstance(cls, type) and issubclass(cls, X.KGNetError)
    and "code" in vars(cls)
}

#: Code reported for exceptions outside the KGNet hierarchy (bugs, OS errors).
INTERNAL_ERROR = "INTERNAL_ERROR"

_CLASS_BY_CODE: Dict[str, Type[X.KGNetError]] = {
    code: cls for cls, code in ERROR_CODES.items()
}

#: Stable error code -> HTTP status, for every code that is not a plain
#: server fault (500).
HTTP_STATUS_BY_CODE: Dict[str, int] = {
    code: cls.http_status for code, cls in _CLASS_BY_CODE.items()
    if cls.http_status != 500
}


def http_status_for_error(code: str) -> int:
    """HTTP status for a stable API error code (500 for server faults)."""
    cls = _CLASS_BY_CODE.get(code)
    return cls.http_status if cls is not None else 500


def error_code(error: object) -> str:
    """The stable code for an exception instance or class.

    A subclass that declares no code inherits its nearest declared
    ancestor's instead of leaking its class name.
    """
    cls = error if isinstance(error, type) else type(error)
    return cls.code if issubclass(cls, X.KGNetError) else INTERNAL_ERROR


def error_payload(error: BaseException) -> Dict[str, object]:
    """Serialise an exception into the envelope's JSON ``error`` object."""
    payload: Dict[str, object] = {
        "code": error_code(error),
        "message": str(error),
        "type": type(error).__name__,
    }
    if isinstance(error, X.KGNetError):
        for key, name in error.top_level_fields.items():
            payload[key] = getattr(error, name)
        if error.detail_fields:
            payload["details"] = {name: getattr(error, name)
                                  for name in error.detail_fields}
    return payload


def exception_from_payload(payload: Optional[Dict[str, object]]) -> BaseException:
    """Rebuild the most specific exception an ``error`` payload describes."""
    if not payload:
        return X.KGNetError("unknown API error (empty error payload)")
    code = str(payload.get("code", INTERNAL_ERROR))
    message = str(payload.get("message", code))
    cls = _CLASS_BY_CODE.get(code)
    if cls is None:
        return X.KGNetError(f"[{code}] {message}")
    details = payload.get("details")
    details = details if isinstance(details, dict) else {}
    fields = {name: payload[key]
              for key, name in cls.top_level_fields.items() if key in payload}
    fields.update((name, details[name])
                  for name in cls.detail_fields if name in details)
    return cls(fields.pop("message", message), **fields)
