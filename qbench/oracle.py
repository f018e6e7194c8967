"""Per-command correctness oracle.

A command passes only if all of these hold:

* it returned exit code 0 and raised nothing (no traceback);
* a JSON report parses as strict JSON (no ``NaN``/``Infinity`` tokens),
  has verdict ``pass``, and every metric is finite, with every
  thresholded metric within its finite threshold;
* a table has the expected number of rows; a CSV table holds only
  finite numbers, and the same header and values as the JSON table of
  the same scan when the repetition renders both;
* an exact output (symbolic verify, expand) has, with the timestamp
  masked, the bytes recorded from the reference commit.

Floating outputs are judged by their thresholds, never by bytes: their
last digits move with the BLAS thread count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path
from typing import Optional

from workloads import Command

REFERENCE_FILE = Path(__file__).with_name("reference.json")

_TIMESTAMP_RE = re.compile(r'"timestamp": "[^"]*"')


def mask_timestamp(text: str) -> str:
    return _TIMESTAMP_RE.sub('"timestamp": "MASKED"', text)


def digest(text: str) -> str:
    return hashlib.sha256(mask_timestamp(text).encode("utf-8")).hexdigest()


def load_reference(path: Path = REFERENCE_FILE) -> dict[str, str]:
    """Map from argv (space-joined) to the sha256 of its masked output."""
    return json.loads(path.read_text(encoding="utf-8"))["sha256"]


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON token {token}")


def parse_strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


class Oracle:
    """Checks the outputs of one repetition, in command order.

    A scan that ``commands`` render both as JSON and as CSV keeps its
    first table until the other rendering arrives to be compared with it.
    """

    def __init__(self, reference: dict[str, str], commands=()):
        self.reference = reference
        self.twins = {_without_format(c.argv) for c in commands if c.fmt == "csv"}
        self.tables: dict[tuple[str, ...], tuple] = {}

    def _compare_twin(self, argv, header, values) -> Optional[str]:
        key = _without_format(argv)
        if key not in self.twins:
            return None
        if key not in self.tables:
            self.tables[key] = (header, values)
            return None
        if self.tables.pop(key) != (header, values):
            return "CSV and JSON tables of one scan differ"
        return None

    def check(
        self, cmd: Command, code, stdout: str, error: Optional[str] = None
    ) -> Optional[str]:
        """None when the output is correct, else the reason it is not."""
        if error:
            return f"raised: {error.strip().splitlines()[-1]}"
        if code != 0:
            return f"exit code {code}, expected 0"
        if cmd.exact:
            want = self.reference.get(cmd.key)
            if want is None:
                return "no reference output recorded"
            if digest(stdout) != want:
                return "output differs from the reference bytes"
        if cmd.fmt == "json":
            return self._check_json(cmd, stdout)
        if cmd.fmt == "csv":
            return self._check_csv(cmd, stdout)
        return None

    def _check_json(self, cmd: Command, stdout: str) -> Optional[str]:
        try:
            report = parse_strict_json(stdout)
        except ValueError as exc:
            return f"bad JSON: {exc}"
        if report.get("verdict") != "pass":
            return f"verdict {report.get('verdict')!r}, expected 'pass'"
        for metric in report.get("metrics", []):
            value, threshold = metric.get("value"), metric.get("threshold")
            if not _finite_number(value):
                return f"metric {metric.get('name')} is not a finite number"
            if threshold is None:
                continue
            if not _finite_number(threshold):
                return f"threshold of {metric.get('name')} is not finite"
            if value > threshold:
                return f"metric {metric.get('name')} = {value} > {threshold}"
        table = report.get("table")
        if cmd.rows is None:
            return None
        if not table:
            return "no table"
        if len(table["rows"]) != cmd.rows:
            return f"{len(table['rows'])} table rows, expected {cmd.rows}"
        values = [[float(v) for v in row] for row in table["rows"]]
        return self._compare_twin(cmd.argv, table["columns"], values)

    def _check_csv(self, cmd: Command, stdout: str) -> Optional[str]:
        lines = list(csv.reader(io.StringIO(stdout)))
        if not lines:
            return "empty CSV"
        header, body = lines[0], lines[1:]
        if cmd.rows is not None and len(body) != cmd.rows:
            return f"{len(body)} CSV rows, expected {cmd.rows}"
        try:
            values = [[float(cell) for cell in row] for row in body]
        except ValueError as exc:
            return f"non-numeric CSV cell: {exc}"
        if not all(math.isfinite(v) for row in values for v in row):
            return "non-finite CSV value"
        return self._compare_twin(cmd.argv, header, values)


def _without_format(argv: tuple[str, ...]) -> tuple[str, ...]:
    out = list(argv)
    if "--format" in out:
        i = out.index("--format")
        del out[i : i + 2]
    return tuple(out)
