"""Fresh-seed pass rates of the tests that draw from a seeded generator.

The statistical tests pass on the seeds written in them.  This script runs
test files once per offset 1..K with ``numpy.random.default_rng(seed)``
replaced by ``default_rng([offset, *seed])``, and reports each test that
drew from a re-seeded generator: the fraction of offsets it passed, and the
first assertion line of each failure, which carries its statistic's value.
Run from the repository root::

    python tests/seed_audit.py                         # K = 20, the files in FILES
    python tests/seed_audit.py --k 50 tests/test_growth.py

It runs outside the test suite, as ``mutants.py`` does, and edits no test
and no tolerance.  Tests that pin bytes or generator states, or rest on
where a chosen seed's stream ends (``PINNED``), are deselected by name.  An
unseeded ``default_rng()`` and one given a generator, a bit generator or a
seed sequence are left as they are, and hypothesis keeps its own profile.
The script exits 1 if a seeded test passes at fewer than ``FLOOR`` of the
offsets.

This module is also the pytest plugin each run loads (``-p seed_audit``).
With ``SEED_AUDIT_OFFSET`` set it re-seeds, deselects the pinned tests and
writes each test's outcome to the JSON file named by ``SEED_AUDIT_OUT``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FILES = ("tests/test_growth.py", "tests/test_cli.py", "tests/test_pipeline.py")
FLOOR = 0.99
OFFSET_VAR, OUT_VAR = "SEED_AUDIT_OFFSET", "SEED_AUDIT_OUT"

# test functions that pin output bytes or generator states to their seeds,
# compare two builds drawn from one seed, or rest on where a chosen seed's
# stream ends
PINNED = frozenset({
    "test_attempt_cap_is_checked_per_block",
    "test_seeded_stream_pinned",
    "test_2d_seeded_stdout_pinned",
    "test_seeded_stdout_pinned",
    "test_seed_with_norm_drift",
    "test_matches_draw_per_attach_reference",
    "test_graph_free_matches_witness",
    "test_stream_replays_as_outcomes_then_one_charge",
    "test_unit_accounting_matches_numpy_reductions",
    "test_batched_unit_accounting_matches_python_reference",
})

_results: dict = {}  # node id -> {"outcome", "seeded", "message"}
_current = None  # the node id of the running test


def pytest_configure(config):
    if OFFSET_VAR not in os.environ:
        return
    offset = int(os.environ[OFFSET_VAR])
    default_rng = np.random.default_rng
    kept = (np.random.SeedSequence, np.random.BitGenerator, np.random.Generator)

    def reseeded(seed=None):
        if seed is None or isinstance(seed, kept):
            return default_rng(seed)
        if _current is not None:
            _results[_current]["seeded"] = True
        return default_rng([offset, *np.atleast_1d(seed).ravel().tolist()])

    np.random.default_rng = reseeded


def pytest_collection_modifyitems(config, items):
    if OFFSET_VAR not in os.environ:
        return
    pinned = [item for item in items if getattr(item, "originalname", item.name) in PINNED]
    if pinned:
        config.hook.pytest_deselected(items=pinned)
        items[:] = [item for item in items if item not in pinned]


def pytest_runtest_setup(item):
    global _current
    _current = item.nodeid
    _results[_current] = {"outcome": "passed", "seeded": False, "message": None}


def pytest_runtest_logreport(report):
    result = _results.get(report.nodeid)
    if result is None or result["outcome"] == "failed":
        return
    if report.failed:
        lines = [line for line in report.longreprtext.splitlines() if line.startswith("E ")]
        result["outcome"] = "failed"
        result["message"] = lines[0][1:].strip() if lines else report.longreprtext[-200:]
    elif report.skipped:
        result["outcome"] = "skipped"


def pytest_sessionfinish(session):
    if OUT_VAR in os.environ:
        Path(os.environ[OUT_VAR]).write_text(json.dumps(_results))


def run_offset(offset: int, files, out: Path) -> dict:
    """One pytest process over ``files`` at ``offset``; its per-test results."""
    env = dict(os.environ, **{OFFSET_VAR: str(offset), OUT_VAR: str(out)})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "tests"), str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "seed_audit", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    return json.loads(out.read_text()) if out.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", default=list(FILES))
    parser.add_argument("--k", type=int, default=20, help="offsets 1..K (default 20)")
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("--k must be >= 1")

    runs: dict = {}  # node id -> [(offset, outcome, message)]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        for offset in range(1, args.k + 1):
            results = run_offset(offset, args.files, Path(scratch) / f"{offset}.json")
            if not results:
                raise SystemExit(f"offset {offset}: pytest wrote no results")
            for node, result in results.items():
                if result["seeded"] and result["outcome"] != "skipped":
                    runs.setdefault(node, []).append((offset, result["outcome"], result["message"]))
    took = time.perf_counter() - start

    low = 0
    for node, node_runs in sorted(runs.items(), key=lambda kv: (_rate(kv[1]), kv[0])):
        rate = _rate(node_runs)
        if rate == 1.0:
            continue
        low += rate < FLOOR
        passed = sum(outcome == "passed" for _, outcome, _ in node_runs)
        print(f"{rate:6.1%}  {passed}/{len(node_runs)}  {node}")
        for offset, outcome, message in node_runs:
            if outcome == "failed":
                print(f"          offset {offset}: {message}")
    perfect = sum(_rate(node_runs) == 1.0 for node_runs in runs.values())
    print(f"{len(runs)} seeded tests over {args.k} offsets in {took:.0f} s: "
          f"{perfect} passed every offset, {low} below {FLOOR:.0%}")
    return 1 if low else 0


def _rate(node_runs) -> float:
    return sum(outcome == "passed" for _, outcome, _ in node_runs) / len(node_runs)


if __name__ == "__main__":
    sys.exit(main())
