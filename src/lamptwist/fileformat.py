"""Shared JSON file conventions: schema versioning and canonical dumps."""

from __future__ import annotations

import json

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
    """Canonical serialization: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
