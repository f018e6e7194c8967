"""The mutant list in tests/mutants.py still points at the code.

Each mutant's pattern must occur exactly once in its source file, and
each test file that must catch it must exist.  A refactor that moves
mutated code then fails here, in milliseconds, rather than at the next
full run of ``python tests/mutants.py``.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_pattern_occurs_once_and_its_tests_exist(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    missing = [test for test in mutant.tests if not (ROOT / test).is_file()]
    assert not missing


def test_mutant_names_are_unique():
    # tests/test_cli.py names its mutant witnesses by name
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))
