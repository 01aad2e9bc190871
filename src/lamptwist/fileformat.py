"""Shared JSON file conventions: schema versioning and canonical dumps."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A file does not conform to the expected schema."""


def json_int(value, field: str) -> int:
    """An integer field of a file, as JSON wrote it: no bool, float or str coercion."""
    if type(value) is not int:
        raise SchemaError(f"{field} must be an integer, not {type(value).__name__}")
    return value


def check_schema(data: dict, kind: str | None = None) -> None:
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    schema = data.get("schema")
    if schema is None or json_int(schema, "schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {schema!r}, expected {SCHEMA_VERSION}")
    if kind is not None and data.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, found {data.get('kind')!r}")


def dumps(obj) -> str:
    """Canonical serialization: sorted keys, fixed layout, trailing newline.

    The bytes are those of `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`,
    written without the stdlib's pure-Python indenting encoder.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    """Append the canonical text of obj; `newline` is a newline plus the current indent."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + _quote(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        # Floats, bools, None, non-str keys and unsupported types: the stdlib's own text.
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline))


def save(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
        except RecursionError:
            raise SchemaError(f"invalid JSON in {path}: nested too deeply") from None
