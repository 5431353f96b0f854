"""The table of `tests/mutants.py`, checked without running any mutant.

A refactor that moves a recorded snippet, or renames the test recorded as
a mutant's catcher, fails here in seconds, not only in the mutation run.
"""

from collections import Counter

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    counts = Counter(name for name, *_ in MUTANTS)
    assert [name for name, k in counts.items() if k > 1] == []


@pytest.mark.parametrize("file, snippet", [m[1:3] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_each_snippet_occurs_once_in_its_file(file, snippet):
    assert (ROOT / "src" / "specseq" / file).read_text().count(snippet) == 1


@pytest.mark.parametrize("tests, catcher", [m[4:6] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_each_catcher_is_a_test_in_the_mutants_files(tests, catcher):
    path, name = catcher.split("::")
    assert any(t == path or t.startswith(path + "::") for t in tests)
    assert f"\ndef {name}(" in (ROOT / path).read_text()
