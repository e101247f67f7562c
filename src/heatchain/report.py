"""Deterministic CSV emission and the JSON run report."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__ as _version

SCHEMA_VERSION = "1"
# table lines formatted and written at a time by `write_csv`: a chunk of four
# columns holds about 0.3 MB of Python objects (4096 lines held 1.1 MB, which set
# the peak memory of a compare at N = 128 in a process that compiles its sources)
CHUNK_LINES = 1024


def write_csv(path: "str | Path", header: "list[str]", columns) -> Path:
    """Write numeric columns under a header; byte-deterministic.

    The columns broadcast against each other (numpy rules) and are written
    in C order, one line per element, so a per-sample column of shape
    (samples, 1) next to a per-site one of shape (sites,) fills a
    samples x sites table.  Integers are formatted by `str`, floats by
    `repr` (the shortest decimal that round-trips the value).  A column
    smaller than the table is formatted once and then broadcast; the table
    is formatted and written CHUNK_LINES lines at a time, so the text held
    at once does not grow with the table.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    size = int(np.prod(shape))
    flats = []  # (C-order iterator over the broadcast column, formatter or None if already text)
    for a in arrays:
        fmt = str if a.dtype.kind in "iu" else repr
        if a.size < size:
            a, fmt = np.array(list(map(fmt, a.ravel().tolist())), dtype=object).reshape(a.shape), None
        flats.append((np.broadcast_to(a, shape).flat, fmt))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, size, CHUNK_LINES):
            values = [(flat[start : start + CHUNK_LINES].tolist(), fmt) for flat, fmt in flats]
            texts = [v if fmt is None else map(fmt, v) for v, fmt in values]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")
    return path


@dataclass
class RunReport:
    """Quantitative outcomes plus full provenance of one subcommand run."""

    subcommand: str
    config: dict
    summary: dict
    criteria: "list[dict] | None" = None
    warnings: "list[str]" = field(default_factory=list)
    artifacts: "list[str]" = field(default_factory=list)
    created_utc: str = ""
    tool_version: str = _version
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.created_utc:
            self.created_utc = datetime.now(timezone.utc).isoformat()

    def to_dict(self) -> dict:
        """The report as JSON data, each non-finite number (an undefined fit, say) as None:
        strict JSON has no NaN or Infinity, so they are written as null."""
        d = json.loads(json.dumps(asdict(self)), parse_constant=lambda name: None)
        if d["criteria"] is None:
            del d["criteria"]
        return d

    def write(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = self.to_dict()
        problems = validate_report(data)
        if problems:
            raise ValueError("report does not match its schema: " + "; ".join(problems))
        path.write_text(json.dumps(data, indent=2, allow_nan=False) + "\n", encoding="utf-8")
        return path


def load_schema() -> dict:
    text = resources.files("heatchain").joinpath("schemas/run_report.schema.json").read_text()
    return json.loads(text)


def _check_node(value, schema: dict, where: str, problems: "list[str]") -> None:
    expected = schema.get("type")
    if isinstance(expected, list):  # a union such as ["number", "null"]
        if value is None and "null" in expected:
            return
        expected = next(t for t in expected if t != "null")
    if expected == "object":
        if not isinstance(value, dict):
            problems.append(f"{where}: expected object")
            return
        for key in schema.get("required", []):
            if key not in value:
                problems.append(f"{where}.{key}: required field missing")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check_node(value[key], sub, f"{where}.{key}", problems)
    elif expected == "array":
        if not isinstance(value, list):
            problems.append(f"{where}: expected array")
            return
        item_schema = schema.get("items")
        if item_schema:
            for i, item in enumerate(value):
                _check_node(item, item_schema, f"{where}[{i}]", problems)
    elif expected == "string":
        if not isinstance(value, str):
            problems.append(f"{where}: expected string")
    elif expected == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: expected number")
    elif expected == "boolean":
        if not isinstance(value, bool):
            problems.append(f"{where}: expected boolean")


def validate_report(data: dict) -> "list[str]":
    """Structural validation against the shipped schema; returns problems."""
    problems: "list[str]" = []
    _check_node(data, load_schema(), "report", problems)
    return problems
