"""The mutant manifest: seeded faults that named tests must catch.

Each entry is one small edit of a file in ``src/clusterforge``: an ``old``
text that occurs exactly once there, the ``new`` text that replaces it, and
the ids of the tests that must fail under the edit.  Run from the
repository root::

    python tests/mutants.py              # every mutant
    python tests/mutants.py --only ID    # one mutant

Each mutant is applied to a temporary copy of ``src/``, and the named tests
run against that copy in a fresh pytest process.  A mutant is killed when
every named test fails; the script prints each mutant as killed or
surviving and exits 1 if any survives.  ``test_mutants.py`` checks, within
the test suite, that every ``old`` text still occurs once and that every
named test is still collected, so a refactor that moves the code updates
this manifest in the same change.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    id: str
    file: str  # under src/clusterforge
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


SV = "tests/test_statevector.py"
GROWTH = "tests/test_growth.py"

MUTANTS = [
    Mutant(
        "split-reversed-view",
        "statevector.py",
        "return state.amps.reshape(1 << qubit, 2, -1)",
        "return state.amps.reshape(-1, 2, 1 << qubit)",
        (
            f"{SV}::TestFusedKernels::test_measure_equals_gate_route_property",
            f"{SV}::TestFusedKernels::test_measure_equals_gate_route[0-0-z-0.0-0.0]",
        ),
    ),
    Mutant(
        "halves-unscaled",
        "statevector.py",
        "top = v[:, 0] * _INV_SQRT2",
        "top = v[:, 0]",
        (
            f"{SV}::TestFusedKernels::test_measure_equals_gate_route_property",
            f"{SV}::TestFusedKernels::test_measure_equals_gate_route[0-0-xi-0.31-0.0]",
        ),
    ),
    Mutant(
        "measure-rescale-by-one-minus-other-weight",
        "statevector.py",
        "1.0 / math.sqrt(weights[outcome])",
        "1.0 / math.sqrt(1.0 - weights[1 - outcome])",
        (
            f"{SV}::TestMeasure::test_unlikely_outcomes_keep_the_norm[z]",
            f"{SV}::TestMeasure::test_unlikely_outcomes_keep_the_norm[xi]",
        ),
    ),
    Mutant(
        "core-bits-reversed",
        "statevector.py",
        "b = (top >> (n - 1 - q)) & 1",
        "b = (top >> q) & 1",
        (
            f"{SV}::TestFusedKernels::test_reset_and_extract_equal_references_property",
            f"{SV}::TestFusedKernels::test_reset_equals_per_qubit_reset[targets1]",
        ),
    ),
    Mutant(
        "trim-extra-wave",
        "growth.py",
        "waves = (row.backbone.index(right) - row.backbone.index(left)) // 2",
        "waves = (row.backbone.index(right) - row.backbone.index(left) + 1) // 2",
        (
            f"{GROWTH}::TestGrow2D::test_seeded_stream_pinned",
            "tests/test_acceptance.py::test_criterion_11_grow_2d",
        ),
    ),
    Mutant(
        "attach-no-peak-update",
        "growth.py",
        "row.peak = len(backbone)",
        "pass",
        (f"{GROWTH}::TestRowInvariant::test_graph_free_row_matches_witness_property",),
    ),
    Mutant(
        "attach-no-spare-promotion",
        "growth.py",
        "                backbone.append(promoted)\n",
        "                pass\n",
        (f"{GROWTH}::TestRowInvariant::test_graph_free_row_matches_witness_property",),
    ),
    Mutant(
        "rewind-whole-last-block",
        "growth.py",
        "taken = drawn - operator.length_hint(current)",
        "taken = drawn",
        (
            f"{GROWTH}::TestGrow2D::test_stream_replays_as_outcomes_then_one_charge[theta0.3]",
            f"{GROWTH}::TestGrow2D::test_stream_replays_as_outcomes_then_one_charge[p0.25]",
        ),
    ),
]


def surviving_tests(mutant: Mutant) -> list:
    """The named tests that pass with the mutant applied to a copy of ``src/``."""
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "clusterforge" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.id}: old text occurs {text.count(mutant.old)} times")
        path.write_text(text.replace(mutant.old, mutant.new))
        # the ini's pythonpath would put the repository's own src/ first
        pytest = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
        proc = subprocess.run(
            [*pytest, "-o", f"pythonpath={src}", *mutant.tests],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    failed = {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return [test for test in mutant.tests if test not in failed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="ID", help="run only the mutant with this id")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only in (None, m.id)]
    if not mutants:
        parser.error(f"no mutant has id {args.only!r}")
    survived = 0
    for mutant in mutants:
        start = time.perf_counter()
        passing = surviving_tests(mutant)
        took = time.perf_counter() - start
        if passing:
            survived += 1
            print(f"SURVIVED {mutant.id} ({took:.1f} s); passing: {', '.join(passing)}")
        else:
            print(f"killed   {mutant.id} ({took:.1f} s)")
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
