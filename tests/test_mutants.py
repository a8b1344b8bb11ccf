"""The mutation probe's list stays in step with the code.

``tests/mutants.py`` is run by hand (it takes minutes); this checks only
that every mutant's fragment still occurs exactly once in its module, that
the mutated module still compiles, that its test files exist, and that
names are unique, so a moved or reworded kernel breaks the list here.
"""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_the_mutant_applies_to_the_current_source(mutant):
    text = mutants.mutated_text(mutant)
    assert text != mutants.source(mutant).read_text()
    compile(text, str(mutants.source(mutant)), "exec")
    assert all((mutants.ROOT / path).is_file() for path in mutant.tests)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
