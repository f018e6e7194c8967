"""Verification reports and their JSON / CSV / text serializations.

Reports are deterministic given inputs and tool version; the timestamp
is the only field excluded from golden comparisons.  Every metric is a
(name, value, threshold) triple with pass meaning value <= threshold;
the report verdict is "pass" exactly when every thresholded metric
passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional, Sequence

SCHEMA_VERSION = 1


def _plain(value):
    """Coerce numpy scalars and other numerics to JSON-safe builtins."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if hasattr(value, "item"):  # numpy scalar
        return _plain(value.item())
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    threshold: Optional[float] = None

    @property
    def passed(self) -> bool:
        if self.threshold is None:
            return True
        return self.value <= self.threshold


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass
class VerificationReport:
    engine: str
    command: str
    parameters: dict
    metrics: list[Metric] = field(default_factory=list)
    table: Optional[Table] = None
    verdict: str = "pass"
    tool_version: str = ""
    timestamp: str = ""

    def __post_init__(self):
        if not self.tool_version:
            from . import __version__

            self.tool_version = __version__
        if not self.timestamp:
            self.timestamp = (
                datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            )

    @classmethod
    def build(
        cls,
        engine: str,
        command: str,
        parameters: dict,
        metrics: Sequence[Metric],
        table: Optional[Table] = None,
    ) -> "VerificationReport":
        verdict = "pass" if all(m.passed for m in metrics) else "fail"
        return cls(
            engine=engine,
            command=command,
            parameters=dict(parameters),
            metrics=list(metrics),
            table=table,
            verdict=verdict,
        )

    @classmethod
    def error(
        cls, engine: str, command: str, parameters: dict, message: str
    ) -> "VerificationReport":
        params = dict(parameters)
        params["error"] = message
        return cls(
            engine=engine,
            command=command,
            parameters=params,
            metrics=[],
            table=None,
            verdict="error",
        )

    def to_json(self) -> str:
        table = self.table
        payload = {
            "schemaVersion": SCHEMA_VERSION,
            "engine": self.engine,
            "command": self.command,
            "parameters": {
                k: _plain(self.parameters[k]) for k in sorted(self.parameters)
            },
            "verdict": self.verdict,
            "metrics": [
                {
                    "name": m.name,
                    "value": _plain(m.value),
                    "threshold": _plain(m.threshold),
                }
                for m in self.metrics
            ],
            "table": (
                {"columns": list(table.columns), "rows": []}
                if table is not None
                else None
            ),
            "toolVersion": self.tool_version,
            "timestamp": self.timestamp,
        }
        text = json.dumps(payload, indent=2, allow_nan=False)
        if table is not None and table.rows:
            # the table's rows are the last "rows" key at its depth: a JSON
            # string cannot hold the raw newline in front of it
            head, _, tail = text.rpartition('\n    "rows": []')
            text = f"{head}\n    \"rows\": {_json_rows(table.rows)}{tail}"
        return text + "\n"

    def to_csv(self) -> str:
        if self.table is None:
            raise ValueError("report has no table; csv format needs one")
        lines = [",".join(self.table.columns)]
        lines.extend(_csv_rows(self.table.rows))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"engine: {self.engine}",
            f"command: {self.command}",
            f"verdict: {self.verdict}",
        ]
        for key in sorted(self.parameters):
            lines.append(f"param {key} = {_plain(self.parameters[key])}")
        for m in self.metrics:
            status = "PASS" if m.passed else "FAIL"
            if m.threshold is None:
                lines.append(f"metric {m.name} = {_plain(m.value)}")
            else:
                lines.append(
                    f"metric {m.name} = {_plain(m.value)} "
                    f"(threshold {_plain(m.threshold)}) {status}"
                )
        if self.table is not None:
            lines.append("table:")
            lines.append("  " + ",".join(self.table.columns))
            lines.extend("  " + line for line in _csv_rows(self.table.rows))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format: {fmt!r}")


# Cell types that json and str render as the report needs them, unchanged
# by _plain: the fast paths below skip the per-cell Python call for these.
_SCALARS = frozenset({int, float, str, bool, type(None)})

# Cells of one row, nested three deep in the report (payload, table, rows),
# as json.dumps(indent=2) separates them; the C encoder, which json.dumps
# uses only without indent, renders a whole table with it in one call.
_CELL_BREAK = ",\n        "
_ROWS_ENCODER = json.JSONEncoder(separators=(_CELL_BREAK, ": "), allow_nan=False)


def _scalar_cells(rows) -> bool:
    return {type(v) for row in rows for v in row} <= _SCALARS


def _json_rows(rows) -> str:
    """The non-empty rows list as json.dumps(indent=2) renders it at the
    depth of a report's table rows."""
    if not (min(map(len, rows)) and _scalar_cells(rows)):
        plain = [[_plain(v) for v in row] for row in rows]
        return json.dumps(plain, indent=2, allow_nan=False).replace("\n", "\n    ")
    # "[[a,<break>b],<break>[c,...]]": only a row boundary puts "]," before
    # a break, and only it needs the row's closing and opening brackets
    body = _ROWS_ENCODER.encode(rows)[2:-2].replace(
        "]" + _CELL_BREAK + "[", "\n      ],\n      [\n        "
    )
    return "[\n      [\n        " + body + "\n      ]\n    ]"


def _csv_rows(rows) -> list[str]:
    """One comma-joined line per row; str of a float is its repr."""
    if _scalar_cells(rows):
        return [",".join(map(str, row)) for row in rows]
    return [",".join(_csv_cell(v) for v in row) for row in rows]


def _csv_cell(value) -> str:
    value = _plain(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)
