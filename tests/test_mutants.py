"""The mutant table in ``tests/mutants.py`` still fits the source.

Every entry's ``old`` text must occur exactly once in its file, so each
edit applies to the line it names; every runnable entry must name a test
function that exists, and every other entry must give its reason.
Running the mutants themselves takes about a minute, so CI does that in
its own step (``python tests/mutants.py``), not here.
"""

import os
import re

import pytest

import mutants

SRC = os.path.join(mutants.ROOT, "src", "blocksweep")


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_edit_applies_once(mutant):
    with open(os.path.join(SRC, mutant.file)) as fh:
        assert fh.read().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_entry_names_its_killing_test_or_its_reason(mutant):
    if mutant.test is None:
        assert mutant.reason
        return
    assert mutant.reason is None
    path, name = mutant.test.split("::")
    with open(os.path.join(mutants.ROOT, path)) as fh:
        source = fh.read()
    function = name.split("[")[0]
    assert re.search(rf"^def {re.escape(function)}\(", source, re.M)
