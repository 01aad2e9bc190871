"""The file formats: schema versioning, canonical dumps, automorphism and certificate files."""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .automorphism import WreathAutomorphism
from .group import GroupParams, Torsion
from .matrix import as_matrix, matrix_order

if TYPE_CHECKING:  # `validate` and `oracle --aut` read automorphism files without reidemeister
    from .reidemeister import SurjectivityCertificate

SCHEMA_VERSION = 1
CERTIFICATE_KIND = "surjectivity-certificate"


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


def _members(pairs: list) -> dict:
    """A JSON object: a repeated key is refused, where `json` would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()  # set.add returns None, so the first key met twice is picked
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise SchemaError(f"repeated key {key!r} in a JSON object")
    return obj


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_members)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
        except RecursionError:
            raise SchemaError(f"invalid JSON in {path}: nested too deeply") from None
        except ValueError as exc:
            if type(exc) is not ValueError:  # a repeated key, or bytes that are not UTF-8
                raise
            # int() refuses a literal past the interpreter's digit limit, which
            # stays in place to keep hostile JSON from quadratic parsing
            limit = sys.get_int_max_str_digits()
            message = f"invalid JSON in {path}: an integer has over {limit} digits"
            raise SchemaError(message) from None


# -- automorphism files -----------------------------------------------------


def _torsion_to_list(t: Torsion) -> list[dict]:
    return [{"coeff": c, "point": list(p)} for p, c in t.items()]


def _torsion_from_list(data, modulus: int, rank: int) -> Torsion:
    if not isinstance(data, list):
        raise ValueError("torsion element must be a list of {coeff, point} objects")
    items = []
    for entry in data:
        if not isinstance(entry, dict) or "coeff" not in entry or "point" not in entry:
            raise ValueError(f"bad torsion term {entry!r}")
        point = tuple(json_int(x, "point coordinate") for x in entry["point"])
        items.append((point, json_int(entry["coeff"], "coeff")))
    return Torsion(modulus, rank, items)


def automorphism_to_dict(aut: WreathAutomorphism) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "modulus": aut.params.modulus,
        "rank": aut.params.rank,
        "matrix": [list(row) for row in aut.matrix],
        "u": _torsion_to_list(aut.origin_image),
        "cocycle": [_torsion_to_list(t) for t in aut.cocycle],
    }


def automorphism_from_dict(data: dict) -> WreathAutomorphism:
    check_schema(data)
    try:
        modulus = json_int(data["modulus"], "modulus")
        rank = json_int(data["rank"], "rank")
        params = GroupParams(modulus, rank)
        matrix = as_matrix([json_int(x, "matrix entry") for x in row] for row in data["matrix"])
        u = _torsion_from_list(data["u"], modulus, rank)
        cocycle_data = data["cocycle"]
        if not isinstance(cocycle_data, list) or len(cocycle_data) != rank:
            raise ValueError(f"cocycle must list {rank} torsion elements")
        cocycle = tuple(_torsion_from_list(entry, modulus, rank) for entry in cocycle_data)
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]!r} in automorphism data") from exc
    except TypeError as exc:
        raise SchemaError(f"malformed automorphism data: {exc}") from exc
    return WreathAutomorphism(params, matrix, u, cocycle)


# -- certificate files --------------------------------------------------------


def certificate_to_dict(cert: SurjectivityCertificate) -> dict:
    template = None
    if cert.template is not None:
        template = {
            "coeff": cert.template.coeff,
            "point": list(cert.template.offset),
            "order": cert.template.order,
            "inverses": {str(t): inv for t, inv in cert.template.inverses.items()},
        }
    return {
        "schema": SCHEMA_VERSION,
        "kind": CERTIFICATE_KIND,
        "automorphism": automorphism_to_dict(cert.automorphism),
        "status": cert.status,
        "template": template,
        "witnesses": [
            {"point": list(pt), "preimage": _torsion_to_list(sigma)}
            for pt, sigma in sorted(cert.witnesses.items())
        ],
        "notes": list(cert.notes),
    }


def _orbit_length(key: str) -> int:
    """A template `inverses` key: a positive orbit length written as str(t) writes it."""
    try:
        t = int(key)
    except ValueError:
        t = 0
    if key != str(t) or t < 1:
        raise SchemaError(f"template inverses key {key!r} is not a positive orbit length")
    return t


def certificate_from_dict(data: dict) -> SurjectivityCertificate:
    from .reidemeister import PreimageTemplate, SurjectivityCertificate

    check_schema(data, kind=CERTIFICATE_KIND)
    try:
        aut = automorphism_from_dict(data["automorphism"])
        n, k = aut.params.modulus, aut.params.rank
        status = data.get("status")
        if status not in ("certified", "unknown"):
            raise ValueError(f"bad certificate status {status!r}")
        template = None
        tdata = data.get("template")
        if tdata is not None:
            template = PreimageTemplate(
                coeff=json_int(tdata["coeff"], "template coeff"),
                offset=tuple(json_int(x, "template point coordinate") for x in tdata["point"]),
                order=json_int(tdata["order"], "template order"),
                inverses={_orbit_length(t): json_int(v, "template inverse")
                          for t, v in tdata["inverses"].items()},
            )
        witnesses = {}
        for entry in data.get("witnesses", []):
            pt = tuple(json_int(x, "witness point coordinate") for x in entry["point"])
            if len(pt) != k:
                raise SchemaError(f"witness point {pt} has length {len(pt)}, expected rank {k}")
            if pt in witnesses:
                raise SchemaError(f"repeated witness point {pt}")
            witnesses[pt] = _torsion_from_list(entry["preimage"], n, k)
        notes = data.get("notes", [])
        if not isinstance(notes, list) or not all(isinstance(note, str) for note in notes):
            raise SchemaError("certificate notes must be a list of strings")
        notes = tuple(notes)
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]!r} in certificate data") from exc
    except (TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed certificate data: {exc}") from exc
    # a template's order is its lattice map's order: another is a malformed file, not a forgery
    if template is not None and template.order != matrix_order(aut.matrix):
        raise SchemaError(f"template order {template.order} is not the order of the lattice map")
    return SurjectivityCertificate(
        automorphism=aut,
        certified=(status == "certified"),
        witnesses=witnesses,
        template=template,
        notes=notes,
    )
