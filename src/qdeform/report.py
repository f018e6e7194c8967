"""Verification reports and their JSON / CSV / text serializations.

Reports are deterministic given inputs and tool version; the timestamp
is the only field excluded from golden comparisons.  Every metric is a
(name, value, threshold) triple with pass meaning value <= threshold;
the report verdict is "pass" exactly when every thresholded metric
passes.
"""

from __future__ import annotations

import time
# the C function json.encoder uses, without importing the json package
from _json import encode_basestring_ascii as _quoted
from itertools import repeat
from struct import pack
from typing import NamedTuple, Optional, Sequence

from . import __version__

SCHEMA_VERSION = 1


# the column shapes that hold one cell per row; any other object in a
# table's cells is one cell that every row repeats
_SEQUENCES = (list, range)


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
    """Column names and the cells of each column, in one of three shapes
    that the producer declares:

    * a list of cells;
    * a ``range`` of ints with step 1 and a start of 0 or more;
    * one cell that every row repeats: any object other than a list or a
      range.

    Every list and range holds one cell per row, and ``count`` is their
    length, so a table with columns needs at least one of them.  ``rows``
    reads the cells row by row when asked for.  A cell is an int or a
    finite float, and a list column holds one of the two types; rendering
    refuses any other cell, naming its column.

    A column that is constant over its rows goes in as one repeated cell,
    which renders formatted once.  A float list column whose cells are
    bit for bit those of an earlier float list column of the table
    renders from that column's texts.
    """

    __slots__ = ("columns", "cells", "count")

    def __init__(self, columns: Sequence[str], cells: Sequence):
        cells = list(cells)
        lengths = {len(c) for c in cells if isinstance(c, _SEQUENCES)}
        if len(cells) != len(columns) or len(lengths) > 1:
            raise ValueError(
                "a table needs one list of cells per column, all of one length"
            )
        if cells and not lengths:
            raise ValueError("a table needs a list or range column to count its rows")
        if any(isinstance(c, range) and (c.step != 1 or c.start < 0) for c in cells):
            raise ValueError("a range column needs step 1 and a start of 0 or more")
        self.columns = tuple(columns)
        self.cells = cells
        self.count = lengths.pop() if lengths else 0

    @property
    def rows(self) -> tuple[tuple, ...]:
        count = self.count
        return tuple(zip(*(
            c if isinstance(c, _SEQUENCES) else repeat(c, count) for c in self.cells
        )))

    def __repr__(self) -> str:
        return f"Table(columns={self.columns!r}, rows={self.rows!r})"


class VerificationReport:
    """One verdict with its metrics, parameters and optional table,
    stamped with this package's version and the current UTC time."""

    def __init__(
        self,
        engine: str,
        command: str,
        parameters: dict,
        metrics: Optional[list[Metric]] = None,
        table: Optional[Table] = None,
        verdict: str = "pass",
    ):
        self.engine = engine
        self.command = command
        self.parameters = parameters
        self.metrics = [] if metrics is None else metrics
        self.table = table
        self.verdict = verdict
        self.tool_version = __version__
        # gmtime() alone reads the second counter of time(NULL), which can
        # still hold the previous second just after time.time() passes it
        self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time()))

    @classmethod
    def build(
        cls, engine: str, command: str, parameters: dict,
        metrics: Sequence[Metric], table: Optional[Table] = None,
    ) -> "VerificationReport":
        verdict = "pass" if all(m.passed for m in metrics) else "fail"
        return cls(engine, command, dict(parameters), list(metrics), table, verdict)

    @classmethod
    def error(
        cls, engine: str, command: str, parameters: dict, message: str
    ) -> "VerificationReport":
        return cls(engine, command, {**parameters, "error": message}, [], None, "error")

    def to_json(self) -> str:
        """The report as json.dumps(indent=2) writes it, rows in place."""
        table = self.table
        head = (
            f'{{\n  "schemaVersion": {SCHEMA_VERSION},\n'
            f'  "engine": {_json(self.engine)},\n'
            f'  "command": {_json(self.command)},\n'
            f'  "parameters": {_json(dict(sorted(self.parameters.items())), "  ")},\n'
            f'  "verdict": {_json(self.verdict)},\n'
            f'  "metrics": {_metrics_json(self.metrics)},\n'
            '  "table": '
        )
        tail = (
            f',\n  "toolVersion": {_json(self.tool_version)},\n'
            f'  "timestamp": {_json(self.timestamp)}\n}}\n'
        )
        if table is None:
            return head + "null" + tail
        columns = _json(list(table.columns), "    ")
        head += f'{{\n    "columns": {columns},\n    "rows": ['
        if not table.count:
            return head + "]\n  }" + tail
        return _rows_text(
            table, _CELL_BREAK, _ROW_BREAK,
            head + "\n      [\n        ", "\n      ]\n    ]\n  }" + tail,
        )

    def to_csv(self) -> str:
        if self.table is None:
            raise ValueError("report has no table; csv format needs one")
        header = ",".join(self.table.columns) + "\n"
        if not self.table.count:
            return header
        return _rows_text(self.table, ",", "\n", header, "\n")

    def to_text(self) -> str:
        lines = [
            f"engine: {self.engine}",
            f"command: {self.command}",
            f"verdict: {self.verdict}",
        ]
        for key in sorted(self.parameters):
            lines.append(f"param {key} = {self.parameters[key]}")
        for m in self.metrics:
            gate = "PASS" if m.passed else "FAIL"
            gate = "" if m.threshold is None else f" (threshold {m.threshold}) {gate}"
            lines.append(f"metric {m.name} = {m.value}{gate}")
        if self.table is not None:
            lines.append("table:")
            lines.append("  " + ",".join(self.table.columns))
        text = "\n".join(lines) + "\n"
        if self.table is None or not self.table.count:
            return text
        return _rows_text(self.table, ",", "\n  ", text + "  ", "\n")

    def render(self, fmt: str) -> str:
        if fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown format: {fmt!r}")
        return getattr(self, "to_" + fmt)()


# The text of each cell type, as json.dumps and str give it
_CELLS = {int: int.__repr__, float: float.__repr__}
# the float texts of the non-finite floats
_NON_FINITE = frozenset({"nan", "inf", "-inf"})

# The break between two cells of a row and between two rows, nested three
# deep in the report (payload, table, rows), as json.dumps(indent=2) lays
# them out.
_CELL_BREAK = ",\n        "
_ROW_BREAK = "\n      ],\n      [\n        "


# The texts of 0..99, and the two-digit tails "00".."99" that end every
# number from 100 on
_SMALL = tuple(map(str, range(100)))
_TAILS = tuple(f"{tail:02d}" for tail in range(100))


def _decimal_blocks(numbers: range):
    """The decimal texts of a non-empty range of ints with step 1 and start
    >= 0, as (prefix, tails) pairs, each text a prefix and one of its
    tails: the numbers below 100 have no prefix, and the rest share
    ``str(n // 100)`` a hundred at a time.
    """
    start, stop = numbers.start, numbers.stop
    first = max(start, 100)  # the first number with a prefix
    if start < first:
        yield "", _SMALL[start : min(stop, first)]
    for hundred in range(first // 100, -(-stop // 100)):
        base = 100 * hundred
        yield str(hundred), _TAILS[max(first - base, 0) : min(stop - base, 100)]


def _spelled(column) -> list:
    """The texts of a varying column, one per row: a range's from its
    prefixes, a list's as they are."""
    if isinstance(column, range):
        return [p + end for p, ends in _decimal_blocks(column) for end in ends]
    return column


def _bits(cells: list) -> bytes:
    """The IEEE bytes of a list of floats, equal for two lists exactly when
    their cells are bit for bit equal: 0.0 and -0.0 differ."""
    return pack(f"{len(cells)}d", *cells)


def _cell_texts(table: Table) -> list:
    """Each column's cell texts for a table that has rows: a str for a
    repeated cell, the shape of a column constant over its rows, formatted
    once; a range as it is, for _rows_text to spell from its decimal
    prefixes; a list formatted in one pass by the repr of its one cell
    type.  A float list whose cells are bit for bit those of a float list
    formatted before takes that list's texts; the two are packed to bytes
    only when their first cells are equal.  A column that holds a cell
    other than an int or a float, both types, or a non-finite float
    raises ValueError.
    """
    texts = []
    floats = []  # (cells, texts) of each float list formatted so far
    for name, cells in zip(table.columns, table.cells):
        if isinstance(cells, range):
            texts.append(cells)
            continue
        repeated = not isinstance(cells, list)
        values = (cells,) if repeated else cells
        kinds = set(map(type, values))
        if len(kinds) > 1 or not kinds <= _CELLS.keys():
            held = " and ".join(sorted(kind.__name__ for kind in kinds))
            raise ValueError(
                f"table column {name!r} holds {held} cells; "
                f"a column holds ints only or floats only"
            )
        kind = type(values[0])
        if kind is float and not repeated:
            shared = [
                done for earlier, done in floats
                if earlier[0] == values[0] and _bits(earlier) == _bits(values)
            ]
            if shared:
                texts.append(shared[0])
                continue
        every = list(map(_CELLS[kind], values))
        if kind is float and not _NON_FINITE.isdisjoint(every):
            bad = next(text for text in every if text in _NON_FINITE)
            raise ValueError(f"table column {name!r} holds the non-finite float {bad}")
        if kind is float and not repeated:
            floats.append((values, every))
        texts.append(every[0] if repeated else every)
    return texts


def _rows_text(table: Table, cell_sep: str, row_sep: str, before: str, after: str):
    """``before + row_sep.join(cell_sep.join(row) for row in rows) + after``
    over the cell texts of a table that has rows, joined once.

    The repeated cells before the first and after the last varying column
    go into the row separator, so a table with one varying column is one
    join over that column.  A range spelled from prefixes is one join per
    hundred numbers when it is that column, and one concatenation per
    number otherwise.
    """
    texts = _cell_texts(table)
    # a table with rows has a list or a range column
    varying = [i for i, column in enumerate(texts) if not isinstance(column, str)]
    first, last = varying[0], varying[-1]
    head = "".join(text + cell_sep for text in texts[:first])
    tail = "".join(cell_sep + text for text in texts[last + 1 :])
    sep = tail + row_sep + head
    if first == last and isinstance(texts[first], range):
        pieces = [p + (sep + p).join(ends) for p, ends in _decimal_blocks(texts[first])]
    else:
        middle = [
            repeat(c) if isinstance(c, str) else _spelled(c)
            for c in texts[first : last + 1]
        ]
        # a lone column's texts are a list of _cell_texts' own; the cell
        # texts of several go before the one join, which holds their rows
        pieces = middle[0] if len(middle) == 1 else [*map(cell_sep.join, zip(*middle))]
        del texts, middle
    pieces[0] = before + head + pieces[0]
    pieces[-1] += tail + after
    return sep.join(pieces)


def _metrics_json(metrics: Sequence[Metric]) -> str:
    """The metrics list as _json writes it at indent "  ", one template per
    metric."""
    if not metrics:
        return "[]"
    inner = "      "
    return "[\n    " + ",\n    ".join(
        f'{{\n{inner}"name": {_quoted(m.name)},\n'
        f'{inner}"value": {_json(m.value, inner)},\n'
        f'{inner}"threshold": {_json(m.threshold, inner)}\n    }}'
        for m in metrics
    ) + "\n  ]"


def _json(value, indent: str = "") -> str:
    """value as json.dumps(value, indent=2, allow_nan=False) writes it at
    this indent, for dict keys that are strings; a non-finite float raises
    json's ValueError and an object of another type its TypeError."""
    if isinstance(value, str):
        return _quoted(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        if text in _NON_FINITE:
            raise ValueError(
                f"Out of range float values are not JSON compliant: {value!r}"
            )
        return text
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_quoted(k)}: {_json(v, inner)}" for k, v in value.items()]
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        ends = "[]"
    else:
        kind = type(value).__name__
        raise TypeError(f"Object of type {kind} is not JSON serializable")
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"
