"""Every seed runs to a report: the commands below, over seeds 0...K-1, must
exit 0.  A seed whose run raises or exits otherwise is printed with what it
gave, and the script exits 1 if there is one.  Run from the repository root,
outside the test suite, as ``seed_audit.py`` is::

    PYTHONPATH=src python tests/seed_sweep.py                  # K = 1000
    PYTHONPATH=src python tests/seed_sweep.py --seeds 3000 --only grow

Seeds it finds are pinned in the suite once mended (``test_cli.py``).
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from clusterforge import cli

COMMANDS = {
    "verify": ["verify"],
    "grow": ["grow", "--mode", "1d", "--target-length", "8", "--trials", "1"],
    "grow2d": ["grow", "--mode", "2d", "--size", "3", "--trials", "1"],
    "retry": ["retry", "--n", "3", "--max-failures", "5", "--trials", "1"],
    "pipeline13": ["pipeline13", "--trials", "1"],
    "pipeline13-theta2.5": ["pipeline13", "--theta", "2.5", "--trials", "1"],
}


def outcome(argv: list) -> object:
    """The exit code of one in-process run, or the name of what it raised."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # noqa: BLE001 -- a traceback is the finding
            return type(exc).__name__


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1000)
    parser.add_argument("--only", choices=sorted(COMMANDS))
    args = parser.parse_args()
    failures = 0
    for name, argv in COMMANDS.items():
        if args.only not in (None, name):
            continue
        bad = [(seed, result) for seed in range(args.seeds)
               if (result := outcome([*argv, "--seed", str(seed)])) != 0]
        failures += len(bad)
        print(f"{' '.join(argv)}: {len(bad)} of {args.seeds} seeds did not exit 0", *bad, sep="\n  ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
