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
# a parameter is any JSON scalar
SCALARS = INTS | FLOATS | TEXT | st.booleans() | st.none()
# a table column holds ints only or floats only
KINDS = (INTS, FLOATS)
# cells of other types than int and float, which rendering refuses
NON_PLAIN = (
    TEXT
    | st.booleans()
    | st.none()
    | st.builds(np.float64, FLOATS)
    | st.builds(np.int64, st.integers(-(2**62), 2**62))
    | st.builds(complex, FLOATS, FLOATS)
    | st.lists(INTS, max_size=2)
)
# cells of any type, so a column of them mixes types more often than not
ANY_CELLS = INTS | FLOATS | NON_PLAIN


@st.composite
def tables(draw, kinds):
    """Tables given row by row, each column drawing its cells from one of
    ``kinds``."""
    width = draw(st.integers(min_value=0, max_value=4))
    columns = tuple(draw(st.lists(TEXT, min_size=width, max_size=width)))
    cells = [draw(st.sampled_from(kinds)) for _ in range(width)]
    rows = draw(
        st.lists(
            st.tuples(*cells),
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


def _assert_refused(report, name, kinds):
    """Every format refuses the report, naming the column and the types of
    its cells."""
    held = " and ".join(sorted(kind.__name__ for kind in kinds))
    message = re.escape(f"table column {name!r} holds {held} cells")
    for render in (report.to_json, report.to_csv, report.to_text):
        with pytest.raises(ValueError, match=message):
            render()


def _assert_same_bytes_or_refused(report):
    """A table with a column that holds a cell of another type than int and
    float, or both types, is refused in every format, naming the first
    such column and its cells' types; any other table renders as the
    reference."""
    table = report.table
    bad = next(
        (
            (name, kinds)
            for name, cells in zip(table.columns, zip(*table.rows))
            for kinds in [set(map(type, cells))]
            if len(kinds) > 1 or not kinds <= {int, float}
        ),
        None,
    )
    if bad is None:
        _assert_same_bytes(report)
    else:
        _assert_refused(report, *bad)


@given(tables(KINDS))
def test_scalar_tables_render_as_the_reference(table):
    _assert_same_bytes(_report(table))


@given(tables(KINDS + (ANY_CELLS,)))
def test_mixed_tables_render_as_the_reference(table):
    _assert_same_bytes_or_refused(_report(table))


@given(tables(KINDS), st.dictionaries(TEXT, SCALARS, max_size=3))
def test_parameters_do_not_disturb_the_table(table, parameters):
    # a parameter may itself be called "rows" and hold an empty list
    _assert_same_bytes(_report(table, {**parameters, "rows": []}))


# a parameter may also hold a list of ints, as the dims of a matrix scan
# do, an empty list or dict, or a dict of scalars
NESTED = (
    SCALARS
    | st.lists(INTS, max_size=4)
    | st.sampled_from([[], {}])
    | st.dictionaries(TEXT, SCALARS, max_size=2)
)


@given(tables(KINDS), st.dictionaries(TEXT, NESTED, max_size=4))
def test_nested_parameters_render_as_the_reference(table, parameters):
    _assert_same_bytes(_report(table, parameters))


@pytest.mark.parametrize(
    "parameters",
    [
        {"dims": [8, 16, 32], "pairs": 3},
        {"dims": [2**70, -1, 0]},
        {"dims": [], "pairs": 0},
        {"empty": {}, "none": None},
        {"nested": {"a": [], "b": {}, "c": [1.5, -0.0]}},
    ],
    ids=["dims", "big-ints", "empty-list", "empty-dict", "nested"],
)
def test_parameter_shapes_render_as_the_reference(parameters):
    for table in (None, Table(("n",), ([],)), Table(("n", "x"), (range(3), 0.5))):
        _assert_same_bytes(_report(table, parameters))
    report = VerificationReport.error("matrix", "scan", parameters, "ValueError: x")
    assert report.to_json() == reference_json(report)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_metric_is_refused_as_json_refuses_it(bad):
    # the text of json.dumps(indent=2, allow_nan=False), which cli.main
    # puts in its error report
    message = f"Out of range float values are not JSON compliant: {bad!r}"
    for metric in (Metric("res", bad, 1e-8), Metric("res", 0.5, bad)):
        report = _report(None)
        report.metrics = [metric]
        with pytest.raises(ValueError) as expected:
            reference_json(report)
        assert str(expected.value) == message
        with pytest.raises(ValueError) as got:
            report.to_json()
        assert str(got.value) == message


@pytest.mark.parametrize(
    "bad", [np.int64(3), 1j, {1, 2}], ids=["int64", "complex", "set"]
)
def test_parameter_json_cannot_write_is_refused_as_json_refuses_it(bad):
    report = _report(None, {"x": bad})
    with pytest.raises(TypeError) as expected:
        reference_json(report)
    with pytest.raises(TypeError) as got:
        report.to_json()
    assert str(got.value) == str(expected.value)


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
    # a non-finite float, or a float64 of any value, in every format
    for render in (report.to_json, report.to_csv, report.to_text):
        with pytest.raises(ValueError, match="table column 'x' holds"):
            render()


# range starts on both sides of the decimal boundaries a prefix crosses
RANGE_STARTS = (
    st.integers(min_value=0, max_value=2**70)
    | st.integers(min_value=0, max_value=10_120)
    | st.sampled_from([0, 1, 9, 10, 95, 99, 100, 101, 195, 9_995, 10**12 - 3])
)


@st.composite
def column_tables(draw, kinds):
    """Tables handed over column by column, in the three shapes producers
    declare: a list of cells (some holding one object in every row), a
    range of ints with step 1 from 0 or more, or one cell that every row
    repeats.  Each column draws its cells from one of ``kinds``."""
    width = draw(st.integers(min_value=0, max_value=4))
    count = draw(st.integers(min_value=0, max_value=6)) if width else 0
    # the column that counts the rows is a list or a range
    anchor = draw(st.integers(min_value=0, max_value=max(width - 1, 0)))
    columns = []
    for i in range(width):
        cells = draw(st.sampled_from(kinds))
        shapes = ["list", "one object", "range"] + ["repeated"] * (i != anchor)
        shape = draw(st.sampled_from(shapes))
        if shape == "list":
            columns.append(draw(st.lists(cells, min_size=count, max_size=count)))
        elif shape == "one object":
            columns.append([draw(cells)] * count)
        elif shape == "range":
            start = draw(RANGE_STARTS)
            columns.append(range(start, start + count))
        else:  # any cell other than a list or range is a repeated one
            columns.append(draw(cells.filter(lambda v: not isinstance(v, list))))
    names = draw(st.lists(TEXT, min_size=width, max_size=width))
    return Table(names, columns)


@given(column_tables(KINDS))
def test_column_tables_render_as_the_reference(table):
    _assert_same_bytes(_report(table))


@given(column_tables(KINDS + (ANY_CELLS,)))
def test_mixed_column_tables_render_as_the_reference(table):
    _assert_same_bytes_or_refused(_report(table))


def test_column_table_reads_row_by_row():
    table = Table(("a", "b"), ([1, 2, 3], [0.5] * 3))
    assert table.rows == ((1, 0.5), (2, 0.5), (3, 0.5))
    assert Table((), ()).rows == ()
    shaped = Table(("n", "x", "c"), (range(7, 10), [0.5, 1.5, 2.5], 4))
    assert shaped.rows == ((7, 0.5, 4), (8, 1.5, 4), (9, 2.5, 4))
    assert shaped.count == 3
    assert Table(("c", "n"), (0.5, [])).rows == ()
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
        [3, 1, 4, 1],
        [2**70, -(2**70), 0, 5],
        range(0),
        range(0, 100),
        range(95, 106),
        range(99, 202),
        range(9_990, 10_111),
        range(10**12, 10**12 + 151),
    ],
    ids=["zeros", "negative-zeros", "mixed-zeros", "negative-zero-first",
         "negative-zero-last", "ints", "big-ints", "range-empty", "range-0..99",
         "range-95..105", "range-99..201", "range-9990..10110",
         "range-1e12..1e12+150"],
)
def test_column_cases_render_as_the_reference(cells):
    count = len(cells)
    tables = (
        Table(("c", "n"), (cells, list(range(count)))),
        Table(("c",), (cells,)),
        # between repeated cells, as the periodicity table lays out its n
        Table(("a", "c", "b"), (-0.0, cells, 7)),
        # beside a list and a repeated cell, as the hbar-to-0 table does
        Table(("c", "x", "a"), (cells, [1.5] * count, -(2**70))),
    )
    for table in tables:
        _assert_same_bytes(_report(table))


@pytest.mark.parametrize(
    "cells",
    [
        [1, True, 1.0, 1],  # equal, but three types
        [True] * 4,
        [False, 0, 0.0, None],
        ["", "a\"b", "é", "x,y"],
        [None] * 4,
        [3, 1.5, 4, 1],
        [0.5, 2, 2.5, 3.5],
    ],
    ids=["int-bool-float", "bools", "falsy", "strings", "nones", "int-first",
         "float-first"],
)
def test_column_cases_outside_ints_or_floats_are_refused(cells):
    tables = (
        Table(("c", "n"), (cells, list(range(len(cells))))),
        Table(("a", "c", "b"), (-0.0, cells, 7)),
    )
    for table in tables:
        _assert_refused(_report(table), "c", set(map(type, cells)))


@pytest.mark.parametrize(
    "cells",
    [range(-105, 105), range(-1, -1), range(90, 130, 2), range(0, 0, 2),
     range(5, 0, -1)],
    ids=["negative-start", "empty-negative-start", "step-2", "empty-step-2",
         "falling"],
)
def test_range_column_other_than_step_1_from_0_up_is_refused(cells):
    with pytest.raises(ValueError, match="a range column needs step 1"):
        Table(("n", "x"), (cells, 0.5))
    with pytest.raises(ValueError, match="a range column needs step 1"):
        Table(("n", "x"), (cells, [0.5] * len(cells)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["constant", "repeated", "first", "last"])
def test_non_finite_column_cell_is_refused(bad, where):
    cells = {
        "constant": [bad] * 3,
        "repeated": bad,
        "first": [bad, 0.5, 1.5],
        "last": [0.5, 1.5, bad],
    }[where]
    report = _report(Table(("x", "n"), (cells, [1, 2, 3])))
    with pytest.raises(ValueError):
        reference_json(report)
    message = re.escape(f"table column 'x' holds the non-finite float {bad!r}")
    for render in (report.to_json, report.to_csv, report.to_text):
        with pytest.raises(ValueError, match=message):
            render()


@pytest.mark.parametrize(
    "bad", [np.float64(0.5), np.int64(3), 1j, (1, 2), "x", True, None],
    ids=["float64", "int64", "complex", "tuple", "str", "bool", "none"],
)
def test_non_plain_repeated_cell_is_refused(bad):
    _assert_refused(_report(Table(("n", "x"), (range(3), bad))), "x", {type(bad)})


def test_report_defaults_and_utc_timestamp():
    before = datetime.now(timezone.utc).replace(microsecond=0)
    report = VerificationReport("symbolic", "verify", {})
    after = datetime.now(timezone.utc)
    assert (report.metrics, report.table, report.verdict) == ([], None, "pass")
    assert report.tool_version == __version__
    stamp = datetime.strptime(report.timestamp, "%Y-%m-%dT%H:%M:%SZ")
    assert before <= stamp.replace(tzinfo=timezone.utc) <= after


def test_metric_passes_at_or_under_its_threshold():
    assert Metric("a", 1.0, 1.0).passed and Metric("a", 5.0).passed
    assert not Metric("a", 2.0, 1.0).passed
    with pytest.raises(AttributeError):
        Metric("a", 1.0).value = 2.0
