"""The mutant list in tests/mutants.py still points at the code.

Each mutant's pattern must occur exactly once in its source file, and
each test that must catch it must exist: its file, and the test function
that a ``file::test`` node id names.  A refactor that moves
mutated code then fails here, in milliseconds, rather than at the next
full run of ``python tests/mutants.py``.  Each mutated source must also
compile to other bytecode than the source: the runner counts a pytest
collection error as a kill, so a mutant that does not compile would be
killed without a test judging it, and one that compiles to the same
bytecode cannot be killed at all.
"""

import types

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_pattern_occurs_once_and_its_tests_exist(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert not _missing(mutant.tests)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_compiles_to_other_bytecode(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    mutated = source.replace(mutant.old, mutant.new)
    assert _bytecode(compile(mutated, mutant.path, "exec")) != _bytecode(
        compile(source, mutant.path, "exec")
    )


def _bytecode(code: types.CodeType) -> tuple:
    """A code object's instructions, names and constants, those of the code
    objects it holds included, without its line numbers."""
    consts = tuple(
        _bytecode(c) if isinstance(c, types.CodeType) else (type(c), repr(c))
        for c in code.co_consts
    )
    return code.co_code, code.co_names, code.co_varnames, consts


def test_bytecode_ignores_lines_but_not_constants():
    def code(text):
        return _bytecode(compile(text, "m", "exec"))

    source = code("def f(x):\n    return x + 0.0\n")
    assert code("# a comment\n\ndef f(x):\n\n    return x + 0.0  # same\n") == source
    assert code("def f(x):\n    return x + -0.0\n") != source
    assert code("def f(y):\n    return y + 0.0\n") != source


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
