"""The golden-output corpus: CLI commands with their pinned results.

Each entry of ``golden.json`` is one argv, run in-process through
``cli.main``, with its exit code and the sha256 of its stdout.  An entry whose
argv holds ``{out}`` also pins the sha256 of the file its ``--out`` flag
writes; an entry whose command raises records the exception's class name in
place of an exit code.  The manifest also records the Python and numpy
versions it was made with, because numpy does not promise equal ``Generator``
streams across versions.  ``test_golden.py`` runs every entry.

Regenerate the manifest from the repository root, with the package on the
path::

    PYTHONPATH=src python tests/golden.py          # writes tests/golden.json
    PYTHONPATH=src python tests/golden.py --full   # also tests/golden_full.json

``--full`` adds the slow commands (``sequences --n 19`` and ``21``, N = 10
lattices) in their own file, which no test reads.  The script prints the
argv of every entry whose result differs from the file it replaces, and
exits 1 if there is one, so a change that claims identical output can run it
and expect exit 0.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import numpy as np

from clusterforge import cli
from clusterforge.protocol import RetryLimitError

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden.json"
FULL_MANIFEST = HERE / "golden_full.json"
OUT = "{out}"  # argv placeholder for a file path under a scratch directory


def run(argv: list, scratch: Path) -> dict:
    """One entry's result: exit code (or escaping exception) and output hashes."""
    path = scratch / "out"
    args = [str(path) if arg == OUT else arg for arg in argv]
    stdout = io.StringIO()
    result = {"argv": argv}
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        try:
            result["exit"] = cli.main(args)
        except SystemExit as exc:  # argparse rejects the flags
            result["exit"] = exc.code
        except RetryLimitError as exc:  # cli.main has no exit code for it yet
            result["exception"] = type(exc).__name__
    result["stdout_sha256"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    if path.exists():
        result["out_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
    return result


def _seeded(*argv, seeds=(1, 2)) -> list:
    return [[*argv, "--seed", str(seed)] for seed in seeds]


def _workload_argvs(per_seed: int) -> list:
    """The benchmark's own op argv, frozen here so the test needs no benchmark import."""
    sys.path.insert(0, str(HERE.parent))
    from perfbench.workloads import op_argvs

    return [
        argv
        for name in ("pipeline13", "grow1d", "retry")
        for seed in (1, 2)
        for argv in islice(op_argvs(name, seed), per_seed)
    ]


def corpus() -> list:
    """The argv of every entry ``test_golden.py`` runs."""
    odd = [str(n) for n in range(1, 16, 2)]
    return [
        *(["sequences", "--n", n] for n in odd),
        *(["protocol-stats", "--n", n] for n in odd[:7]),
        ["protocol-stats", "--n", "5", "--theta", "0.7", "--format", "json"],
        *_seeded("retry", "--n", "7", "--theta", "1.0", "--max-failures", "40"),
        ["retry", "--n", "1", "--theta", "0"],
        *_workload_argvs(per_seed=5),
        *_seeded("grow", "--mode", "1d", "--trials", "20"),
        *_seeded("grow", "--mode", "1d", "--trials", "10", "--target-length", "300",
                 "--theta", "0.8"),
        *_seeded("grow", "--mode", "1d", "--trials", "20", "--n", "1", "--theta", "1.0"),
        # every gain pair of the run nets 0: the paired estimates read 0 and inf
        ["grow", "--mode", "1d", "--target-length", "8", "--trials", "1", "--seed", "22"],
        # p ~ 0.210, close to the growth threshold: about 85 row restarts
        *_seeded("grow", "--mode", "1d", "--theta", "1.05", "--target-length", "200",
                 "--trials", "5"),
        *_seeded("grow", "--mode", "2d", "--size", "2", "--trials", "5"),
        *_seeded("grow", "--mode", "2d", "--size", "3", "--trials", "2"),
        ["grow", "--mode", "2d", "--size", "5", "--trials", "1", "--seed", "4"],
        *_seeded("pipeline13", "--trials", "5", seeds=(1, 2, 3)),
        *_seeded("pipeline13", "--trials", "1", "--theta", "2.5"),
        *_seeded("verify", seeds=(1, 2, 12345)),
        # theta = 2.5 pipeline runs past 10,000 applications, under the old and the new give-up rule
        *_seeded("verify", seeds=(18, 595)),
        ["verify", "--corrupt-gate", "--seed", "11"],
        # --out files
        ["sequences", "--n", "7", "--out", OUT],
        ["retry", "--n", "3", "--format", "json", "--out", OUT],
        ["grow", "--mode", "2d", "--size", "2", "--trials", "3", "--out", OUT],
        ["verify", "--seed", "8", "--out", OUT],
        # invalid arguments: exit 2
        ["sequences", "--n", "2"],
        ["sequences", "--n", "0"],
        ["retry", "--n", "23"],
        ["retry", "--n", "3", "--max-failures", "-1"],
        ["protocol-stats", "--theta", "nan"],
        ["grow", "--mode", "1d", "--theta", "1.15"],
        ["grow", "--mode", "1d", "--target-length", "5"],
        ["grow", "--mode", "3d"],
        ["grow", "--trials", "0"],
        ["pipeline13", "--n", "5"],
        ["pipeline13", "--retry-cap", "0", "--trials", "1"],
        ["verify", "--theta", "0.3"],
        ["frobnicate"],
        # escapes as RetryLimitError today, not as a documented exit
        ["pipeline13", "--theta", "3.1", "--retry-cap", "5", "--trials", "1"],
    ]


def full_corpus() -> list:
    """Commands too slow for the test suite, kept for a byte-identity check by hand."""
    return [
        *(["sequences", "--n", n] for n in ("17", "19", "21")),
        ["protocol-stats", "--n", "19"],
        *_seeded("grow", "--mode", "2d", "--size", "10", "--trials", "1"),
    ]


def _regenerate(path: Path, argvs: list) -> list:
    """Rewrite one manifest; returns the argv of entries that changed or are new."""
    old = {}
    if path.exists():
        old = {json.dumps(e["argv"]): e for e in json.loads(path.read_text())["entries"]}
    with tempfile.TemporaryDirectory() as scratch:
        entries = [run(argv, Path(scratch)) for argv in argvs]
    manifest = {"python": platform.python_version(), "numpy": np.__version__, "entries": entries}
    path.write_text(json.dumps(manifest, indent=1) + "\n")
    return [e["argv"] for e in entries if old.get(json.dumps(e["argv"])) != e]


def main(argv: list) -> int:
    changed = _regenerate(MANIFEST, corpus())
    if "--full" in argv:
        changed += _regenerate(FULL_MANIFEST, full_corpus())
    for args in changed:
        print(" ".join(args))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
