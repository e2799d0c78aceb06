"""Manifest files: the JSON encoding of a frame manifold plus structure.

Schema version 1.  Chart mode stores the frame rows over the coordinate
partials, abstract mode stores the bracket records for i < j; phi and xi
travel together or not at all.  All expressions are strings in the
canonical renderer's syntax, so export -> ingest -> export is the
identity byte for byte.  `CatalogEntry` is what every manifest, built-in
or user-written, becomes for the reporting code.  `to_json` writes every
JSON document the package emits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

from .contact import ContactStructure
from .expr import (Expr, ExprError, ExprParseError, KIND_COORDINATE,
                   KIND_PARAMETER, SymbolTable, parse)
from .frame import (FrameError, FrameManifold, MODE_ABSTRACT, MODE_CHART,
                    VectorField, check_metric, coordinate_found)
from .linalg import SingularMatrixError

SCHEMA_VERSION = 1
# reports grow as dim^5 (dimension 21 takes 15 s, 350 MB): bound the input
_MAX_DIMENSION = 15


class ManifestError(Exception):
    """Raised with the full list of ingest problems."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    manifold: FrameManifold
    structure: ContactStructure | None

    def substitute(self, bindings: dict) -> "CatalogEntry":
        if self.structure is None:
            return CatalogEntry(self.id,
                                self.manifold.substitute_parameters(bindings),
                                None)
        # the structure carries its own substituted manifold
        structure = self.structure.substitute_parameters(bindings)
        return CatalogEntry(self.id, structure.manifold, structure)


@dataclass(frozen=True)
class IngestResult:
    name: str
    manifest: dict
    manifold: FrameManifold
    structure: ContactStructure | None


# ---------------------------------------------------------------------------
# export

def export_entry(entry: CatalogEntry) -> dict:
    m = entry.manifold
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": entry.id,
        "dimension": m.dim,
        "mode": m.mode,
        "symbols": [{"name": s.name, "kind": s.kind} for s in m.symbols],
    }
    if m.mode == MODE_CHART:
        doc["frame"] = [[str(c) for c in row.components]
                        for row in m.chart_frame]
    else:
        doc["brackets"] = [
            {"i": i, "j": j,
             "components": [str(c) for c in m.bracket_basis(i, j).components]}
            for i in range(1, m.dim + 1) for j in range(i + 1, m.dim + 1)
            if not m.bracket_basis(i, j).is_zero()]
    doc["metric"] = [[str(m.metric_entry(i, j)) for j in range(1, m.dim + 1)]
                     for i in range(1, m.dim + 1)]
    if entry.structure is not None:
        doc["phi"] = [[str(c) for c in row.components]
                      for row in entry.structure.phi_rows]
        doc["xi"] = [str(c) for c in entry.structure.xi.components]
    return doc


_STR = json.encoder.encode_basestring_ascii


def _encode(value, indent: str) -> str:
    """json.dumps(value, indent=2) at the given indent."""
    cls = value.__class__
    if cls is dict:
        return _table((value,), indent) if value else "{}"
    if cls is list or cls is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        try:    # _STR raises TypeError unless the item is a str
            body = sep.join(map(_STR, value))
        except TypeError:
            body = _table(value, inner) or sep.join(
                [_encode(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    if cls is str:
        return _STR(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if cls is int:
        return int.__repr__(value)
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _table(rows, indent: str) -> str | None:
    """The rows at the given indent, joined, when all are dicts with one
    nonempty key tuple, else None.  One %-template writes every row: a
    column of ints (not bools) is formatted in place, and any other
    column's values are encoded once per object, for this call only."""
    if set(map(type, rows)) != {dict}:
        return None
    shapes = set(map(tuple, rows))
    keys = shapes.pop()
    if shapes or not keys:
        return None
    for key in keys:
        if key.__class__ is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    inner, width = indent + "  ", len(keys)
    flat = list(chain.from_iterable(map(dict.values, rows)))
    fields = []
    for col, key in enumerate(keys):
        column = flat[col::width]
        ints = set(map(type, column)) == {int}
        if not ints:
            # every id names a live object of the document during this call
            texts = {i: _encode(v, inner)
                     for i, v in dict(zip(map(id, column), column)).items()}
            flat[col::width] = map(texts.__getitem__, map(id, column))
        fields.append(_STR(key).replace("%", "%%") + (": %d" if ints
                                                      else ": %s"))
    template = ("{\n" + inner + (",\n" + inner).join(fields) + "\n"
                + indent + "}")
    return (",\n" + indent).join([template] * len(rows)) % tuple(flat)


def to_json(doc: dict) -> str:
    """json.dumps(doc, indent=2) plus a newline, from an encoder that
    joins whole containers (the stdlib's indented encoding is pure
    Python, chunk by chunk).  Takes dicts with str keys, lists, tuples,
    str, int, bool and None, and raises TypeError on anything else.
    Manifests, reports and sweep documents are all written by it."""
    return _encode(doc, "") + "\n"


def manifest_to_json(doc: dict) -> str:
    return to_json(doc)


# ---------------------------------------------------------------------------
# ingest

_TOP_KEYS = {"schema_version", "name", "dimension", "mode", "symbols",
             "frame", "brackets", "metric", "phi", "xi"}


def _parse_expr(text, table: SymbolTable, path: str, errors: list[str],
                parameter_only: bool = False):
    if not isinstance(text, str):
        errors.append(f"{path}: expected an expression string, got "
                      f"{type(text).__name__}")
        return None
    try:
        e = parse(text, table)
    except (ExprParseError, ExprError) as exc:
        errors.append(f"{path}: {exc}")
        return None
    found = coordinate_found(e, table) if parameter_only else None
    if found:
        errors.append(f"{path}: must be parameter-only in abstract mode, "
                      f"{found}")
        return None
    return e


def _parse_row(values, dim: int, table: SymbolTable, path: str,
               errors: list[str], parameter_only: bool = False):
    # a list of dim expression strings, entry k at path[k]
    if not isinstance(values, list) or len(values) != dim:
        errors.append(f"{path}: expected {dim} entries")
        return None
    parsed = [_parse_expr(v, table, f"{path}[{k}]", errors, parameter_only)
              for k, v in enumerate(values)]
    return None if any(p is None for p in parsed) else parsed


def _parse_matrix(rows, dim: int, table: SymbolTable, path: str,
                  errors: list[str], parameter_only: bool = False):
    if not isinstance(rows, list) or len(rows) != dim:
        errors.append(f"{path}: expected {dim} rows")
        return None
    out = [_parse_row(row, dim, table, f"{path}[{r}]", errors, parameter_only)
           for r, row in enumerate(rows)]
    return None if any(r is None for r in out) else out


def ingest_manifest(doc: dict) -> IngestResult:
    """Validate a parsed manifest document and build the objects.

    Problems are collected exhaustively, each prefixed with the field
    path, and raised together as a ManifestError.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ManifestError(["manifest: expected a JSON object"])
    for key in doc:
        if key not in _TOP_KEYS:
            errors.append(f"{key}: unknown field")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, "
                      f"got {version!r}")
    name = doc.get("name", "manifest")
    if not isinstance(name, str) or not name:
        errors.append("name: expected a non-empty string")
        name = "manifest"
    dim = doc.get("dimension")
    if not isinstance(dim, int) or dim not in range(3, _MAX_DIMENSION + 1, 2):
        errors.append("dimension: expected an odd integer from 3 to "
                      f"{_MAX_DIMENSION}, got {dim!r}")
        raise ManifestError(errors)
    mode = doc.get("mode")
    if mode not in (MODE_ABSTRACT, MODE_CHART):
        errors.append(f"mode: expected '{MODE_ABSTRACT}' or '{MODE_CHART}', "
                      f"got {mode!r}")
        raise ManifestError(errors)

    table = SymbolTable()
    symbols = doc.get("symbols", [])
    if not isinstance(symbols, list):
        errors.append("symbols: expected a list")
        symbols = []
    for idx, rec in enumerate(symbols):
        if (not isinstance(rec, dict) or not isinstance(rec.get("name"), str)
                or rec.get("kind") not in (KIND_COORDINATE, KIND_PARAMETER)):
            errors.append(f"symbols[{idx}]: expected "
                          "{'name': str, 'kind': 'coordinate'|'parameter'}")
            continue
        try:
            table.add(rec["name"], rec["kind"])
        except ExprError as exc:
            errors.append(f"symbols[{idx}]: {exc}")

    metric = None
    if "metric" in doc:
        metric = _parse_matrix(doc["metric"], dim, table, "metric", errors)
        if metric is not None:
            try:
                check_metric(metric, dim, table)
            except FrameError as exc:
                errors.append(f"metric: {exc}")

    manifold = None
    if mode == MODE_CHART:
        if "brackets" in doc:
            errors.append("brackets: not allowed in chart mode")
        rows = _parse_matrix(doc.get("frame"), dim, table, "frame", errors)
        if rows is not None and not errors:
            try:
                manifold = FrameManifold.chart(
                    dim, table, tuple(tuple(r) for r in rows), metric=metric)
            except FrameError as exc:
                errors.append(f"frame: {exc}")
            except SingularMatrixError as exc:
                errors.append(str(exc))
    else:
        if "frame" in doc:
            errors.append("frame: not allowed in abstract mode "
                          "(use 'brackets')")
        brackets = {}
        records = doc.get("brackets", [])
        if not isinstance(records, list):
            errors.append("brackets: expected a list")
            records = []
        for idx, rec in enumerate(records):
            path = f"brackets[{idx}]"
            if not isinstance(rec, dict):
                errors.append(f"{path}: expected an object")
                continue
            i, j = rec.get("i"), rec.get("j")
            if not (type(i) is int and type(j) is int
                    and 1 <= i < j <= dim):
                errors.append(f"{path}: expected indices 1 <= i < j <= {dim}")
                continue
            if (i, j) in brackets:
                errors.append(f"{path}: duplicate pair ({i},{j})")
                continue
            parsed = _parse_row(rec.get("components"), dim, table,
                                f"{path}.components", errors)
            if parsed is not None:
                brackets[(i, j)] = tuple(parsed)
        if not errors:
            try:
                manifold = FrameManifold.abstract(dim, table, brackets,
                                                  metric=metric)
            except FrameError as exc:
                errors.append(f"brackets: {exc}")
            except SingularMatrixError as exc:
                errors.append(str(exc))

    structure = None
    has_phi, has_xi = "phi" in doc, "xi" in doc
    if has_phi != has_xi:
        errors.append("phi/xi: phi and xi must be given together")
    elif has_phi:
        # abstract mode cannot differentiate coordinate functions
        parameter_only = mode == MODE_ABSTRACT
        phi_rows = _parse_matrix(doc["phi"], dim, table, "phi", errors,
                                 parameter_only)
        xi = _parse_row(doc["xi"], dim, table, "xi", errors, parameter_only)
        if manifold is not None and phi_rows is not None and xi is not None:
            structure = ContactStructure(
                manifold, tuple(VectorField.make(r) for r in phi_rows),
                VectorField.make(xi))

    if errors:
        raise ManifestError(errors)
    assert manifold is not None
    return IngestResult(name=name, manifest=doc, manifold=manifold,
                        structure=structure)


def load_manifest(path: str) -> IngestResult:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ManifestError([f"{path}: {exc}"]) from None
    except UnicodeDecodeError as exc:
        raise ManifestError([f"{path}: not UTF-8 text: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise ManifestError(
            [f"{path}: invalid JSON at line {exc.lineno}, "
             f"column {exc.colno}: {exc.msg}"]) from None
    except RecursionError:
        raise ManifestError([f"{path}: JSON nested too deeply"]) from None
    return ingest_manifest(doc)


def entry_from_ingest(result: IngestResult) -> CatalogEntry:
    """Repackage ingested objects so reporting code sees one shape."""
    return CatalogEntry(result.name, result.manifold, result.structure)


__all__ = [
    "SCHEMA_VERSION",
    "CatalogEntry",
    "IngestResult",
    "ManifestError",
    "entry_from_ingest",
    "export_entry",
    "ingest_manifest",
    "load_manifest",
    "manifest_to_json",
    "to_json",
]
