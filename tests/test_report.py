import re
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdeform import __version__
from qdeform.report import Metric, Table, VerificationReport

from oracles import reference_csv, reference_json, reference_text, rows_table

EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.5, 1e16])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
INTS = st.integers(min_value=-(2**70), max_value=2**70)
TEXT = st.text(max_size=12)  # any code point: quotes, commas, newlines, non-ASCII
SCALARS = INTS | FLOATS | TEXT | st.booleans() | st.none()
# cells of other types than the plain ones, which rendering refuses
NON_PLAIN = (
    st.builds(np.float64, FLOATS)
    | st.builds(np.int64, st.integers(-(2**62), 2**62))
    | st.builds(complex, FLOATS, FLOATS)
    | st.lists(INTS, max_size=2)
)


@st.composite
def tables(draw, cells):
    width = draw(st.integers(min_value=0, max_value=4))
    columns = tuple(draw(st.lists(TEXT, min_size=width, max_size=width)))
    rows = draw(
        st.lists(
            st.lists(cells, min_size=width, max_size=width).map(tuple),
            max_size=6 if width else 0,  # a table without columns has no rows
        )
    )
    return rows_table(columns, rows)


def _report(table, parameters=None):
    report = VerificationReport.build(
        "clock-shift",
        "scan --engine clock-shift",
        parameters or {"rows": [], "table": None},
        [Metric("max_residual", 1e-16, 1e-12), Metric("pairs", 3)],
        table,
    )
    report.timestamp = "2026-01-01T00:00:00Z"
    return report


def _assert_same_bytes(report):
    assert report.to_json() == reference_json(report)
    assert report.to_text() == reference_text(report)
    if report.table is not None:
        assert report.to_csv() == reference_csv(report)


PLAIN_TYPES = (int, float, str, bool, type(None))


def _assert_same_bytes_or_refused(report):
    """A table with a cell of another type than the plain ones is refused
    in every format, naming the first such column and that cell's type;
    any other table renders as the reference."""
    table = report.table
    bad = next(
        (
            (name, type(value))
            for name, cells in zip(table.columns, zip(*table.rows))
            for value in cells
            if type(value) not in PLAIN_TYPES
        ),
        None,
    )
    if bad is None:
        _assert_same_bytes(report)
        return
    name, kind = bad
    message = re.escape(f"table column {name!r} holds a cell of type {kind.__name__}")
    for render in (report.to_json, report.to_csv, report.to_text):
        with pytest.raises(ValueError, match=message):
            render()


@given(tables(SCALARS))
def test_scalar_tables_render_as_the_reference(table):
    _assert_same_bytes(_report(table))


@given(tables(SCALARS | NON_PLAIN))
def test_mixed_tables_render_as_the_reference(table):
    _assert_same_bytes_or_refused(_report(table))


@given(tables(SCALARS), st.dictionaries(TEXT, SCALARS, max_size=3))
def test_parameters_do_not_disturb_the_table(table, parameters):
    # a parameter may itself be called "rows" and hold an empty list
    _assert_same_bytes(_report(table, {**parameters, "rows": []}))


@pytest.mark.parametrize(
    "columns, cells, refused",
    [
        (None, None, False),
        (("N", "k", "residual"), ([], [], []), False),
        ((), ([], []), True),  # cells without columns
        (("a", "b"), ([1, 2], [3]), True),
    ],
    ids=["absent", "empty", "empty-rows", "ragged"],
)
def test_edge_tables_render_as_the_reference(columns, cells, refused):
    if refused:
        with pytest.raises(ValueError, match="one list of cells per column"):
            Table(columns, cells)
        return
    table = None if columns is None else Table(columns, cells)
    _assert_same_bytes(_report(table))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
def test_non_finite_cell_is_refused(bad):
    report = _report(Table(("n", "x"), ([1, 2], [0.5, bad])))
    with pytest.raises(ValueError):
        reference_json(report)
    with pytest.raises(ValueError):
        report.to_json()


# range starts on both sides of the decimal boundaries a prefix crosses
RANGE_STARTS = (
    st.integers(min_value=-(2**70), max_value=2**70)
    | st.integers(min_value=-120, max_value=10_120)
    | st.sampled_from([0, 1, 9, 10, 95, 99, 100, 101, 195, 9_995, 10**12 - 3])
)


@st.composite
def column_tables(draw, cells):
    """Tables handed over column by column, in the three shapes producers
    declare: a list of cells (some holding one object in every row), a
    range of ints, or one cell that every row repeats."""
    width = draw(st.integers(min_value=0, max_value=4))
    count = draw(st.integers(min_value=0, max_value=6)) if width else 0
    # the column that counts the rows is a list or a range
    anchor = draw(st.integers(min_value=0, max_value=max(width - 1, 0)))
    columns = []
    for i in range(width):
        shapes = ["list", "one object", "range"] + ["repeated"] * (i != anchor)
        shape = draw(st.sampled_from(shapes))
        if shape == "list":
            columns.append(draw(st.lists(cells, min_size=count, max_size=count)))
        elif shape == "one object":
            columns.append([draw(cells)] * count)
        elif shape == "range":
            start = draw(RANGE_STARTS)
            step = draw(st.sampled_from([1, 1, 1, 2, 3, -1, -7]))
            columns.append(range(start, start + step * count, step))
        else:  # any cell other than a list or range is a repeated one
            columns.append(draw(cells.filter(lambda v: not isinstance(v, list))))
    names = draw(st.lists(TEXT, min_size=width, max_size=width))
    return Table(names, columns)


@given(column_tables(SCALARS))
def test_column_tables_render_as_the_reference(table):
    _assert_same_bytes(_report(table))


@given(column_tables(SCALARS | NON_PLAIN))
def test_mixed_column_tables_render_as_the_reference(table):
    _assert_same_bytes_or_refused(_report(table))


def test_column_table_reads_row_by_row():
    table = Table(("a", "b"), ([1, 2, 3], [0.5] * 3))
    assert table.rows == ((1, 0.5), (2, 0.5), (3, 0.5))
    assert Table((), ()).rows == ()
    shaped = Table(("n", "x", "c"), (range(7, 10), [0.5, 1.5, 2.5], "c"))
    assert shaped.rows == ((7, 0.5, "c"), (8, 1.5, "c"), (9, 2.5, "c"))
    assert shaped.count == 3
    assert Table(("c", "n"), (None, [])).rows == ()
    with pytest.raises(ValueError, match="one list of cells per column"):
        Table(("a", "b"), ([1, 2], [3]))
    with pytest.raises(ValueError, match="one list of cells per column"):
        Table(("a", "b"), ([1, 2],))
    with pytest.raises(ValueError, match="one list of cells per column"):
        Table(("a", "b"), (range(2), [3]))
    with pytest.raises(ValueError, match="a list or range column to count its rows"):
        Table(("a", "b"), (0.5, "x"))


ZERO, NEGATIVE_ZERO = 0.0, -0.0


@pytest.mark.parametrize(
    "cells",
    [
        [ZERO] * 4,
        [NEGATIVE_ZERO] * 4,
        [ZERO, NEGATIVE_ZERO, ZERO, ZERO],  # equal, but not one value
        [NEGATIVE_ZERO, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ZERO, NEGATIVE_ZERO],
        [1, True, 1.0, 1],  # equal, but three types
        [True] * 4,
        [False, 0, 0.0, None],
        [3, 1, 4, 1],
        [2**70, -(2**70), 0, 5],
        ["", "a\"b", "é", "x,y"],
        range(0),
        range(0, 100),
        range(95, 106),
        range(99, 202),
        range(9_990, 10_111),
        range(10**12, 10**12 + 151),
        range(-105, 105),
        range(90, 130, 2),
    ],
    ids=["zeros", "negative-zeros", "mixed-zeros", "negative-zero-first",
         "negative-zero-last", "int-bool-float", "bools", "falsy", "ints",
         "big-ints", "strings", "range-empty", "range-0..99", "range-95..105",
         "range-99..201", "range-9990..10110", "range-1e12..1e12+150",
         "range-negative-start", "range-step-2"],
)
def test_column_cases_render_as_the_reference(cells):
    count = len(cells)
    tables = (
        Table(("c", "n"), (cells, list(range(count)))),
        Table(("c",), (cells,)),
        # between repeated cells, as the periodicity table lays out its n
        Table(("a", "c", "b"), (-0.0, cells, "x,y")),
        # beside a list and a repeated cell, as the hbar-to-0 table does
        Table(("c", "x", "a"), (cells, [1.5] * count, None)),
    )
    for table in tables:
        _assert_same_bytes(_report(table))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "where", ["constant", "repeated", "first", "last", "mixed-types"]
)
def test_non_finite_column_cell_is_refused(bad, where):
    cells = {
        "constant": [bad] * 3,
        "repeated": bad,
        "first": [bad, 0.5, 1.5],
        "last": [0.5, 1.5, bad],
        "mixed-types": [1, "x", bad],
    }[where]
    report = _report(Table(("x", "n"), (cells, [1, 2, 3])))
    with pytest.raises(ValueError):
        reference_json(report)
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.to_json()
    # csv and text print the float as it is, as the reference does
    assert report.to_csv() == reference_csv(report)
    assert report.to_text() == reference_text(report)


@pytest.mark.parametrize(
    "bad", [np.float64(0.5), np.int64(3), 1j, (1, 2)],
    ids=["float64", "int64", "complex", "tuple"],
)
def test_non_plain_repeated_cell_is_refused(bad):
    report = _report(Table(("n", "x"), (range(3), bad)))
    message = re.escape(f"table column 'x' holds a cell of type {type(bad).__name__}")
    for render in (report.to_json, report.to_csv, report.to_text):
        with pytest.raises(ValueError, match=message):
            render()


def test_report_defaults_and_utc_timestamp():
    before = datetime.now(timezone.utc).replace(microsecond=0)
    report = VerificationReport("symbolic", "verify", {})
    after = datetime.now(timezone.utc)
    assert (report.metrics, report.table, report.verdict) == ([], None, "pass")
    assert report.tool_version == __version__
    stamp = datetime.strptime(report.timestamp, "%Y-%m-%dT%H:%M:%SZ")
    assert before <= stamp.replace(tzinfo=timezone.utc) <= after
    # a given version and stamp are kept as they are
    kept = VerificationReport("symbolic", "verify", {}, tool_version="x", timestamp="t")
    assert (kept.tool_version, kept.timestamp) == ("x", "t")


def test_metric_passes_at_or_under_its_threshold():
    assert Metric("a", 1.0, 1.0).passed and Metric("a", 5.0).passed
    assert not Metric("a", 2.0, 1.0).passed
    with pytest.raises(AttributeError):
        Metric("a", 1.0).value = 2.0
