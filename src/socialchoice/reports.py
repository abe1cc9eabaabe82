"""Deterministic run reports.

Reports are the CLI's only output, so their serialization is canonical:
sorted keys, floats normalized to 9 significant digits, no locale or dict
ordering leaks.  A report is a plain dict (`make_report`); identical
(command, inputs, seed, payload, version) must serialize to identical bytes,
in JSON and in the flattened CSV alike.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from typing import Any

from . import __version__


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def canonical_value(obj: Any) -> Any:
    """Normalize a payload tree: 9-significant-digit floats, plain containers."""
    # Strings first: a report's largest lists are of ids.  A bool is an int.
    if isinstance(obj, (str, int)) or obj is None:
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("report payloads must be finite")
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("report payload keys must be strings")
        return {k: canonical_value(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [canonical_value(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, allow_nan=False)


def _flatten(prefix: str, value: Any, rows: list[tuple[str, Any]]):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, value))


def report_csv(report: dict) -> str:
    """Two-column flattening of the report; values are JSON-encoded scalars.

    Carries exactly the numbers of the JSON form: both serialize the same
    canonicalized tree.
    """
    rows: list[tuple[str, Any]] = []
    _flatten("", report, rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("key", "value"))
    for key, value in rows:
        writer.writerow((key, json.dumps(value, allow_nan=False)))
    return buffer.getvalue()


def make_report(command: str, inputs: dict[str, bytes | str], seed: int, payload: dict) -> dict:
    """The canonical report: each input's sha256, the canonicalized payload, seed and version."""
    return {
        "command": command,
        "inputs": {name: sha256_hex(inputs[name]) for name in sorted(inputs)},
        "seed": seed,
        "payload": canonical_value(payload),
        "version": __version__,
    }
