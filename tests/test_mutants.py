"""The mutant list in tests/mutants.py still points at the code.

Each mutant's pattern must occur exactly once in its source file, and
each test that must catch it must exist: its file, and the test function
that a ``file::test`` node id names.  A refactor that moves
mutated code then fails here, in milliseconds, rather than at the next
full run of ``python tests/mutants.py``.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_pattern_occurs_once_and_its_tests_exist(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert not _missing(mutant.tests)


def _missing(nodes):
    """The node ids whose file, or whose named test function, is absent."""
    missing = []
    for node in nodes:
        path, _, function = node.partition("::")
        file = ROOT / path
        if not file.is_file() or (
            function and f"\ndef {function}(" not in file.read_text(encoding="utf-8")
        ):
            missing.append(node)
    return missing


def test_missing_node_ids_are_reported():
    present = "tests/test_mutants.py::test_mutant_names_are_unique"
    absent = [
        "tests/test_mutants.py::test_no_such_test",
        "tests/test_mutants.py::test_mutant_names",  # a prefix of a real name
        "tests/no_such_file.py",
        "tests/no_such_file.py::test_mutant_names_are_unique",
    ]
    assert _missing(["tests/test_mutants.py", present, *absent]) == absent


def test_mutant_names_are_unique():
    # tests/test_cli.py names its mutant witnesses by name
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))
