"""Deterministic table serialization: CSV plus a mirroring JSON layout.

Every float in a cell or in the JSON ``extra`` payload is rendered by one
shared 17-significant-digit formatter, so a run repeated with the same
inputs produces byte-identical files and parsed values round-trip to the
exact same doubles.  Each emitted document starts with the fully resolved
run configuration, written by ``json.dumps`` in Python's shortest float
spelling (``0.8`` in a region table's header, ``0.80000000000000004`` in
its cells); re-running it must reproduce the numeric columns bit for bit.

CSV layout:   one ``# config: {...}`` comment line, a header line, then
one line per row.  JSON layout: an object with ``config``, ``columns``,
``rows`` and (optionally) ``extra`` keys, with numeric tokens identical
to the CSV's.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError, ShapeError
from .probability import _shown

_CSV_FORBIDDEN = (",", "\n", "\r", '"')


def format_float(x: float) -> str:
    """17-significant-digit rendering; round-trips any finite double."""
    return f"{float(x):.17g}"


def _token(v, csv: bool) -> str:
    """One scalar as a CSV cell (``csv``) or as a JSON value: the two
    spellings differ only for None, strings and non-finite floats."""
    if v is None:
        return "" if csv else "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        # non-finite floats are not JSON numbers; keep the CSV spelling as
        # a string so the two formats stay mirror images
        return format_float(v) if csv or math.isfinite(v) else json.dumps(format_float(v))
    if isinstance(v, str):
        if not csv:
            return json.dumps(v)
        if any(c in v for c in _CSV_FORBIDDEN):
            raise DomainError(f"CSV cell {v!r} needs quoting, which this format forbids")
        return v
    raise DomainError(f"cannot serialize {type(v).__name__} into a table cell")


def _json_value(v) -> str:
    """Recursive JSON rendering with the shared float formatter."""
    if isinstance(v, dict):
        parts = []
        for k, item in v.items():
            if not isinstance(k, str):
                raise DomainError(f"JSON object keys must be strings, got {_shown(k)}")
            parts.append(f"{json.dumps(k)}:{_json_value(item)}")
        return "{" + ",".join(parts) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(item) for item in v) + "]"
    if isinstance(v, np.ndarray):
        return _json_value(v.tolist())
    return _token(v, csv=False)


def config_json(config: dict) -> str:
    """Canonical one-line rendering of a resolved run configuration."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_table(f, config: dict, columns, rows, fmt: str, extra: dict | None = None) -> None:
    """Write one run's output table to a text sink.

    ``fmt`` is "csv" or "json"; ``extra`` is an optional structured
    payload (JSON only -- the CSV stays a plain table).
    """
    columns = list(columns)
    for row in rows:
        if len(row) != len(columns):
            raise ShapeError(f"row of width {len(row)} under {len(columns)} columns")
    if fmt == "csv":
        f.write("# config: " + config_json(config) + "\n")
        for line in [columns, *rows]:
            f.write(",".join(_token(v, csv=True) for v in line) + "\n")
    elif fmt == "json":
        body = [
            f'"config":{config_json(config)}',
            f'"columns":{_json_value(columns)}',
            '"rows":[' + ",".join(_json_value(list(r)) for r in rows) + "]",
        ]
        if extra is not None:
            body.append(f'"extra":{_json_value(extra)}')
        f.write("{" + ",".join(body) + "}\n")
    else:
        raise DomainError(f"format must be csv or json, got {_shown(fmt)}")


def read_table(text: str) -> tuple[dict, list, list]:
    """Parse either emitted format back into (config, columns, rows).

    Row cells come back as the literal tokens (strings) so byte-level
    comparisons are possible; parse them further as needed.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(stripped)
        rows = [[_token(v, csv=True) for v in row] for row in doc["rows"]]
        return doc["config"], list(doc["columns"]), rows
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or not lines[0].startswith("# config: "):
        raise DomainError("table text carries no config header")
    config = json.loads(lines[0][len("# config: "):])
    columns = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return config, columns, rows
