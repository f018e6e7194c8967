"""Verification reports and their JSON / CSV / text serializations.

Reports are deterministic given inputs and tool version; the timestamp
is the only field excluded from golden comparisons.  Every metric is a
(name, value, threshold) triple with pass meaning value <= threshold;
the report verdict is "pass" exactly when every thresholded metric
passes.
"""

from __future__ import annotations

import json
import operator
import time
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional, Sequence

from . import __version__

SCHEMA_VERSION = 1


class Metric(NamedTuple):
    name: str
    value: float
    threshold: Optional[float] = None

    @property
    def passed(self) -> bool:
        if self.threshold is None:
            return True
        return self.value <= self.threshold


class Table:
    """Column names and one list of cells per column, all of one length.

    ``rows`` reads the cells row by row when asked for.  A cell is an int,
    float, str, bool or None; rendering refuses any other type.
    """

    __slots__ = ("columns", "cells")

    def __init__(self, columns: Sequence[str], cells: Sequence[list]):
        cells = list(cells)
        if len(cells) != len(columns) or len(set(map(len, cells))) > 1:
            raise ValueError(
                "a table needs one list of cells per column, all of one length"
            )
        self.columns = tuple(columns)
        self.cells = cells

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*self.cells))

    def __repr__(self) -> str:
        return f"Table(columns={self.columns!r}, rows={self.rows!r})"


class VerificationReport:
    """One verdict with its metrics, parameters and optional table.

    An empty ``tool_version`` or ``timestamp`` is filled in with this
    package's version and the current UTC time.
    """

    def __init__(
        self,
        engine: str,
        command: str,
        parameters: dict,
        metrics: Optional[list[Metric]] = None,
        table: Optional[Table] = None,
        verdict: str = "pass",
        tool_version: str = "",
        timestamp: str = "",
    ):
        self.engine = engine
        self.command = command
        self.parameters = parameters
        self.metrics = [] if metrics is None else metrics
        self.table = table
        self.verdict = verdict
        self.tool_version = tool_version or __version__
        self.timestamp = timestamp or time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
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
            "parameters": dict(sorted(self.parameters.items())),
            "verdict": self.verdict,
            "metrics": [
                {"name": m.name, "value": m.value, "threshold": m.threshold}
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
        if table is None or not _row_count(table):
            return text + "\n"
        # the table's rows are the last "rows" key at its depth: a JSON
        # string cannot hold the raw newline in front of it.  One join, so
        # the rows are copied once more, not once per enclosing piece.
        head, _, tail = text.rpartition('\n    "rows": []')
        return "".join(
            (head, '\n    "rows": [\n      [\n        ', *_json_rows(table),
             "\n      ]\n    ]", tail, "\n")
        )

    def to_csv(self) -> str:
        if self.table is None:
            raise ValueError("report has no table; csv format needs one")
        header = ",".join(self.table.columns) + "\n"
        if not _row_count(self.table):
            return header
        return "".join((header, *_csv_lines(self.table, "\n"), "\n"))

    def to_text(self) -> str:
        lines = [
            f"engine: {self.engine}",
            f"command: {self.command}",
            f"verdict: {self.verdict}",
        ]
        for key in sorted(self.parameters):
            lines.append(f"param {key} = {self.parameters[key]}")
        for m in self.metrics:
            status = "PASS" if m.passed else "FAIL"
            if m.threshold is None:
                lines.append(f"metric {m.name} = {m.value}")
            else:
                lines.append(
                    f"metric {m.name} = {m.value} (threshold {m.threshold}) {status}"
                )
        if self.table is not None:
            lines.append("table:")
            lines.append("  " + ",".join(self.table.columns))
        text = "\n".join(lines) + "\n"
        if self.table is None or not _row_count(self.table):
            return text
        return "".join((text, "  ", *_csv_lines(self.table, "\n  "), "\n"))

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format: {fmt!r}")


# The text of each cell type, as json.dumps and str give it
_JSON_CELLS = {
    int: int.__repr__,
    float: float.__repr__,
    str: encode_basestring_ascii,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}
_CSV_CELLS = {
    int: int.__repr__,
    float: float.__repr__,
    str: str.__str__,
    bool: bool.__repr__,
    type(None): lambda _: "None",
}
# float texts that json.dumps(allow_nan=False) refuses
_NON_FINITE = frozenset({"nan", "inf", "-inf"})

# The break between two cells of a row and between two rows, nested three
# deep in the report (payload, table, rows), as json.dumps(indent=2) lays
# them out.
_CELL_BREAK = ",\n        "
_ROW_BREAK = "\n      ],\n      [\n        "


def _row_count(table: Table) -> int:
    return len(table.cells[0]) if table.cells else 0


def _cell_texts(table: Table, formats: dict, refused: frozenset = frozenset()):
    """Each column's cell texts for a table that has rows, formatted once per
    column: a str for a column that holds one object in every row, else a
    list.  A cell whose type is not in ``formats``, or a float text in
    ``refused``, raises ValueError.
    """
    texts = []
    for name, cells in zip(table.columns, table.cells):
        first = cells[0]
        # one object, not equal values: 0.0 == -0.0 and 1 == 1.0 == True
        constant = all(map(operator.is_, cells, repeat(first)))
        kinds = {type(first)} if constant else set(map(type, cells))
        if not kinds.issubset(formats):
            kind = next(type(v) for v in cells if type(v) not in formats)
            raise ValueError(
                f"table column {name!r} holds a cell of type {kind.__name__}; "
                f"cells must be int, float, str, bool or None"
            )
        if constant:
            column = formats[type(first)](first)
            every = (column,)
        elif len(kinds) == 1:
            column = every = list(map(formats[type(first)], cells))
        else:
            column = every = [formats[type(v)](v) for v in cells]
        if refused and float in kinds and not refused.isdisjoint(every):
            raise ValueError("Out of range float values are not JSON compliant")
        texts.append(column)
    return texts


def _join_rows(
    texts: list, count: int, cell_sep: str, row_sep: str
) -> tuple[str, str, str]:
    """``row_sep.join(cell_sep.join(row) for row in rows)`` over ``count``
    rows, where a str in ``texts`` stands for a column of that one text,
    as three pieces for the caller to join with the text around them.

    The constant columns before the first and after the last varying one
    go into the row separator, so a table with one varying column is one
    join over that column.
    """
    varying = [i for i, column in enumerate(texts) if not isinstance(column, str)]
    if not varying:
        return "", row_sep.join(repeat(cell_sep.join(texts), count)), ""
    first, last = varying[0], varying[-1]
    head = "".join(text + cell_sep for text in texts[:first])
    tail = "".join(cell_sep + text for text in texts[last + 1 :])
    middle = [repeat(c) if isinstance(c, str) else c for c in texts[first : last + 1]]
    rows = middle[0] if len(middle) == 1 else map(cell_sep.join, zip(*middle))
    return head, (tail + row_sep + head).join(rows), tail


def _json_rows(table: Table) -> tuple[str, str, str]:
    """The cells of a table that has rows, as json.dumps(indent=2) lays
    them out inside the brackets of a report's table rows, in pieces."""
    texts = _cell_texts(table, _JSON_CELLS, _NON_FINITE)
    return _join_rows(texts, _row_count(table), _CELL_BREAK, _ROW_BREAK)


def _csv_lines(table: Table, line_break: str) -> tuple[str, str, str]:
    """The rows of a table that has rows, as comma-joined lines in pieces;
    str of a float is its repr."""
    texts = _cell_texts(table, _CSV_CELLS)
    return _join_rows(texts, _row_count(table), ",", line_break)
