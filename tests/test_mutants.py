"""The mutant manifest still applies to the code and the tests it names.

Running the mutants takes minutes and stays out of this suite
(``python tests/mutants.py``); these checks are fast.
"""

import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT, SRC


def test_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (SRC / "clusterforge" / mutant.file).read_text().count(mutant.old) == 1


def test_named_tests_are_collected():
    named = sorted({test for m in MUTANTS for test in m.tests})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *named],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    collected = set(proc.stdout.splitlines())
    assert [test for test in named if test not in collected] == []
