"""Command-line front end: verification suites, sweeps, result persistence.

argparse is the only argument path: each subcommand takes just the flags it
reads or echoes into its ``n``, ``theta``, ``seed`` and ``trials`` columns,
and ``main`` hands the parsed namespace to the command.  When the first
argument names a command, ``main`` gives the rest straight to that command's
parser, so each argument is parsed once, and an argument the command does not
take is reported by it (``clusterforge pipeline13: error: unrecognized
arguments: ...``); the top-level parser reads only a missing or unknown
command and a top-level ``-h``.  ``pipeline13`` has no ``--n`` (its chains
have three middles), ``protocol-stats`` reads ``--theta`` as a
comma-separated grid, and ``verify`` takes only ``--seed``, ``--out`` and
``--corrupt-gate``.

All randomness flows from one ``--seed`` flag; per-trial generators are
seeded with ``[seed, stream, index]`` entropy tuples, so identical configs
reproduce byte-identical output files under any execution order.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments (a flag
argparse rejects, a ``ValueError`` from the library, such as an even n, or
an ``--out`` path that cannot be opened, found before the command computes).
CSV output is comma-separated with a header row, LF line endings, and floats
printed at 12 significant digits.  Commands hand the writer columns: a list
of per-row values, or a constant (provenance and per-run values), which is
formatted once.  The argument parser is built once per
process, on the first ``main`` call, and reused by every later call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator

import numpy as np

from . import growth as gr
from . import protocol as pr
from . import statevector as sv

_PUBLISHED_T1D = "23*l_C"     # published shorthand for the 1D time cost
_PUBLISHED_T2D = "65*N+10"    # published shorthand for the 2D time cost
_VERIFY_RETRY_CAP = 100_000  # theta = 2.5 runs pass it about once in 1e27 (tail e-fold ~1,600)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_pieces(rows: list[dict]) -> Iterator[str]:
    """``json.dumps(rows, indent=1) + "\n"`` in pieces of a few thousand
    tokens, as the encoder yields them: an indented one-shot dump would
    hold every token of every row at once."""
    tokens = json.JSONEncoder(indent=1).iterencode(rows)
    while piece := "".join(itertools.islice(tokens, 4096)):
        yield piece
    yield "\n"


def _emit(columns: dict, args: argparse.Namespace) -> Iterable[str]:
    """Render columns as CSV text, or as JSON text in pieces.  A list column
    holds one value per row; any other value is a constant, in every row, and
    columns without a list are one row."""
    count = next((len(v) for v in columns.values() if isinstance(v, list)), 1)
    if args.fmt == "json":
        values = [v if isinstance(v, list) else itertools.repeat(v, count) for v in columns.values()]
        return _json_pieces([dict(zip(columns, row)) for row in zip(*values)])
    if not count:
        return ["\n"]
    cells = [list(map(_fmt, v)) if isinstance(v, list) else [_fmt(v)] * count for v in columns.values()]
    return ["\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"]


def _check_out(path: str | None):
    """Raise ``ValueError`` unless ``--out`` opens, writing nothing: a command
    that raises later leaves an existing file as it was and makes none."""
    if not path:
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ValueError(f"cannot open --out: {exc}") from None
    if not existed:
        os.remove(path)


def _write(pieces: Iterable[str], args: argparse.Namespace):
    """Write the pieces of one output to ``--out``, if given, and to stdout."""
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext() as fh:
        for piece in pieces:
            if fh is not None:
                fh.write(piece)
            sys.stdout.write(piece)


def _provenance(args: argparse.Namespace) -> dict:
    return {"n": args.n, "theta": args.theta, "seed": args.seed, "trials": args.trials}


# ---------------------------------------------------------------------------
# Subcommands

def cmd_sequences(args: argparse.Namespace) -> int:
    """Print heralded-success sequences from the oracle and the rule generator."""
    oracle, rules = pr.success_mask(args.n), pr.rule_based_sequences(args.n)
    union = np.flatnonzero(oracle | rules)
    spec = f"0{args.n}b"
    columns = {
        **_provenance(args),
        "sequence": [format(m, spec) for m in union.tolist()],
        "hamming_weight": np.bitwise_count(union).tolist(),
        "in_oracle": oracle[union].astype(int).tolist(),
        "in_rules": rules[union].astype(int).tolist(),
    }
    _write(_emit(columns, args), args)
    if not np.array_equal(oracle, rules):
        print("MISMATCH: rule-based generator disagrees with the oracle", file=sys.stderr)
        return 1
    print(f"# {len(union)} sequences, generator matches oracle", file=sys.stderr)
    return 0


def cmd_protocol_stats(args: argparse.Namespace) -> int:
    """Closed-form vs enumerated success probability over a theta grid."""
    thetas = list(args.theta)
    closed = [pr.success_probability_closed(args.n, theta) for theta in thetas]
    oracle = [pr.oracle_success_probability(args.n, theta) for theta in thetas]
    columns = {
        **_provenance(args),
        "theta": thetas,
        "p_closed": closed,
        "p_oracle": oracle,
        "p_asymptotic": [pr.success_probability_asymptotic(args.n, theta) for theta in thetas],
    }
    _write(_emit(columns, args), args)
    worst = max(abs(c - o) for c, o in zip(closed, oracle))
    if worst > 1e-10:
        print(f"MISMATCH: closed form vs oracle differ by {worst:.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_retry(args: argparse.Namespace) -> int:
    """Exact success probabilities after N consecutive failures."""
    probs, total = pr.retry_probabilities(args.n, args.theta, args.max_failures)
    columns = {
        **_provenance(args),
        "failures_before_success": list(range(len(probs))),
        "probability": probs,
        "cumulative": list(itertools.accumulate(probs)),
    }
    _write(_emit(columns, args), args)
    print(f"# cumulative after {args.max_failures} failures: {total:.9f}", file=sys.stderr)
    return 0


def cmd_grow(args: argparse.Namespace) -> int:
    """Monte-Carlo growth statistics against the closed-form cost model."""
    p = pr.success_probability_closed(args.n, args.theta)

    if args.mode == "1d":
        # the gain estimate pairs attempts that start at least 5 below the target
        if args.target_length < 8:
            raise ValueError("--target-length must be >= 8 in 1d mode")
        s_a = gr.expected_pair_prep_attempts(p)
        s_b = gr.expected_three_node_protocols(p)
        gain = gr.expected_length_gain(p)
        runs = [
            gr.grow_1d(args.target_length, p, args.n, np.random.default_rng([args.seed, 10, i]))[1]
            for i in range(args.trials)
        ]
        apps = sum(st.protocol_applications for st in runs)
        prep = sum(st.prep_rounds for st in runs)
        # a fusion cycle's rounds are the larger of its two pairs' Geometric(p) draws
        s_a_mc = prep / sum(st.pair_fusion_attempts for st in runs)
        s_b_mc = prep / sum(st.three_nodes_built for st in runs)
        gain_mc = sum(st.paired_gain_sum for st in runs) / sum(st.paired_gain_pairs for st in runs)
        row = {
            **_provenance(args),
            "p": p,
            "target_length": args.target_length,
            "s_a_formula": s_a,
            "s_a_mc": s_a_mc,
            "s_b_formula": s_b,
            "s_b_mc": s_b_mc,
            "length_gain_formula": gain,
            "length_gain_mc": gain_mc,
            "protocols_per_length_formula": (s_b + 1.0) / gain,
            "protocols_per_length_mc": (s_b_mc + 1.0) / gain_mc if gain_mc else math.inf,
            "protocols_per_length_raw": apps / sum(st.final_length for st in runs),
            "t1d_per_length_formula": gr.time_steps_1d(1.0, p),
            "t1d_per_length_published": _PUBLISHED_T1D,
            "note": "published shorthand differs from the displayed formula; both reported",
        }
        _write(_emit(row, args), args)
        return 0

    # 2d: a build that cannot complete raises, so every trial completes a grid
    size = args.size
    overhead = 0.0
    apps = 0
    for i in range(args.trials):
        rng = np.random.default_rng([args.seed, 20, i])
        _, st = gr.grow_2d(size, p, args.n, rng)
        overhead += st.physical_qubits_used / (size * size)
        apps += st.protocol_applications
    tail = gr.time_steps_2d(0, p)  # the model's c*N + tail, read at N = 0 and 1
    row = {
        **_provenance(args),
        "p": p,
        "grid": size,
        "grids_completed": args.trials,
        "mean_protocol_applications": apps / args.trials,
        "mean_overhead_per_qubit": overhead / args.trials,
        "overhead_reference": 4 * (args.n + 1) ** 2,
        "t2d_formula": f"{_fmt(gr.time_steps_2d(1, p) - tail)}*N+{_fmt(tail)}",
        "t2d_published": _PUBLISHED_T2D,
        "note": "published shorthand differs from the displayed formula; both reported",
    }
    _write(_emit(row, args), args)
    return 0


def cmd_pipeline13(args: argparse.Namespace) -> int:
    """Run the 13-qubit demonstration pipeline and report fidelities."""
    fids, runs = [], []
    target = gr.three_node_target()
    for i in range(args.trials):
        rng = np.random.default_rng([args.seed, 30, i])
        ends, st = gr.run_thirteen_qubit_pipeline(args.theta, rng, retry_cap=args.retry_cap)
        fids.append(sv.fidelity_up_to_global_phase(ends, target))
        runs.append(st)
    columns = {
        **_provenance(args),
        "trial": list(range(args.trials)),
        "fidelity": fids,
        "protocol_applications": [st.protocol_applications for st in runs],
        "time_steps": [st.time_steps for st in runs],
        "restarts": [st.restarts for st in runs],
    }
    _write(_emit(columns, args), args)
    worst = min(1.0, *fids)
    if worst < 1.0 - 1e-9:
        print(f"MISMATCH: worst pipeline fidelity {worst!r}", file=sys.stderr)
        return 1
    return 0


def verify(args: argparse.Namespace) -> int:
    """Run the cross-module invariant suite; returns a process exit code.

    ``args.corrupt_gate`` is the negative control: every state the suite compares
    by fidelity gets an extra RZ(1e-3) on qubit 0 first, so the teleportation,
    GHZ and pipeline checks must fail and every other line is unchanged.
    """
    failures: list[str] = []
    lines: list[str] = []
    clock = time.perf_counter()

    def check(name: str, ok: bool, detail: str):
        """Record a check's line, and its wall time since the last one on stderr."""
        nonlocal clock
        now = time.perf_counter()
        print(f"# {name}: {now - clock:.6f} s", file=sys.stderr)
        clock = now
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)

    def fidelity(state: sv.PureState, target: sv.PureState) -> float:
        if args.corrupt_gate:
            sv.apply_gate(state, 0, "RZ", 1e-3)
        return sv.fidelity_up_to_global_phase(state, target)

    for n, expected in ((1, {"1"}), (3, {"010", "101", "111"})):
        got = set(pr.enumerate_success_sequences(n))
        check(f"oracle_n{n}", got == expected, f"{sorted(got)}")
    for n in (1, 3, 5):
        ok = np.array_equal(pr.rule_based_sequences(n), pr.success_mask(n))
        check(f"rules_equal_oracle_n{n}", ok, f"n={n}")

    worst = 0.0
    for n in (1, 3, 5):
        for theta in (0.0, 0.3, 1.0, 2.5):
            worst = max(
                worst,
                abs(
                    pr.oracle_success_probability(n, theta)
                    - pr.success_probability_closed(n, theta)
                ),
            )
    check("probability_closed_form", worst < 1e-10, f"max deviation {worst:.3e}")

    # norm preservation and entangler identity on random states
    rng = np.random.default_rng(args.seed)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = sv.PureState(3, raw / np.linalg.norm(raw))
    for q, gate in ((0, "H"), (1, "X"), (2, "Z"), (1, "H")):
        sv.apply_gate(state, q, gate)
    sv.apply_controlled_phase(state, 0, 2, 0.77, "CSX")
    drift = abs(state.norm_squared() - 1.0)
    check("norm_preservation", drift < 1e-12, f"|norm^2 - 1| = {drift:.2e}")
    a = sv.init_register([(0.6, 0.8j), "+"])
    b = a.copy()
    sv.apply_controlled_phase(a, 0, 1, 1.234, "CSX")
    sv.apply_gate(b, 1, "X")
    sv.apply_controlled_phase(b, 0, 1, 1.234, "CS")
    sv.apply_gate(b, 1, "X")
    ok = bool(np.max(np.abs(a.amps - b.amps)) < 1e-12)
    check("csx_identity", ok, "CSX == (I x X) CS (I x X)")

    # teleportation: exact at theta = 0, heralded branch perfect at any theta
    ok = True
    for m in (0, 1):
        _, out_state = pr.one_bit_teleport((0.6, 0.8j), 0.9, 0.0, outcome=m)
        ok &= fidelity(out_state, pr.teleport_target((0.6, 0.8j), 0.9, m)) > 1.0 - 1e-12
    run = pr.stochastic_teleport((0.6, 0.8j), 0.4, 0.8, outcomes=(1, 0))
    ok &= fidelity(run.output, pr.stochastic_teleport_target((0.6, 0.8j), 0.4, 0)) > 1.0 - 1e-10
    check("teleportation", ok, "ideal and heralded outputs")

    est = pr.average_teleport_infidelity(0.3, 20000, args.seed)
    target = 0.5 * math.sin(0.15) ** 2
    se = math.sin(0.15) ** 2 / math.sqrt(12.0) / math.sqrt(20000)
    check("teleport_infidelity_mc", abs(est - target) < 4 * se, f"{est:.6f} vs {target:.6f}")

    probs, total = pr.retry_probabilities(1, 0.7, 10)
    exact = [pr.retry_probability_closed_n1(0.7, k) for k in range(11)]
    dev = max(abs(x - y) for x, y in zip(probs, exact))
    check("retry_exact_n1", dev < 1e-12, f"max deviation {dev:.2e}")

    ghz = pr.concatenated_ghz(3, 0.7, rng=np.random.default_rng([args.seed, 1]))
    fid = fidelity(ghz.state, pr.ghz_target(5))
    check("ghz_concatenation", fid > 1.0 - 1e-10, f"fidelity {fid:.12f}")

    for theta in (0.0, 0.3, 1.0, 2.5):
        rng = np.random.default_rng([args.seed, 2, int(theta * 10)])
        ends, _ = gr.run_thirteen_qubit_pipeline(theta, rng, _VERIFY_RETRY_CAP)
        fid = fidelity(ends, gr.three_node_target())
        check(f"pipeline_theta_{theta}", fid > 1.0 - 1e-9, f"fidelity {fid:.12f}")

    p = pr.success_probability_closed(3, 0.3)
    graph, _ = gr.grow_2d(2, p, 3, np.random.default_rng([args.seed, 3]))
    nodes, edges = len(graph.nodes), graph.edge_count()
    check("grow2d_minimal", nodes == 4 and edges == 4, f"{nodes} nodes, {edges} edges")

    lines.append(f"{'FAIL' if failures else 'PASS'} overall: {len(failures)} failing checks")
    _write(["\n".join(lines) + "\n"], args)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite_float(t) for t in text.split(",")]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterforge",
        description="Distill perfect cluster states from imperfect global entangling gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    one_theta = {"type": _finite_float, "default": 0.3, "help": "systematic phase error (radians)"}

    def command(name, run, help, theta=one_theta, n=True):
        """A subcommand printing rows whose n, theta, seed and trials columns echo its flags."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if n:
            p.add_argument("--n", type=int, default=3, help="odd middle-qubit count")
        p.add_argument("--theta", **theta)
        p.add_argument("--trials", type=_positive_int, default=1000)
        p.add_argument("--seed", type=int, default=12345)
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        return p

    command("sequences", cmd_sequences, "heralded success sequences: oracle vs rules")
    command("protocol-stats", cmd_protocol_stats, "success probability: closed form vs oracle",
            theta={"type": _float_list, "default": (0.0, 0.3, 1.0, 2.5),
                   "help": "comma-separated theta grid (radians)"})

    p = command("retry", cmd_retry, "exact fail-and-retry success probabilities")
    p.add_argument("--max-failures", type=int, default=25)

    p = command("grow", cmd_grow, "Monte-Carlo growth vs the closed-form cost model")
    p.add_argument("--mode", choices=("1d", "2d"), default="1d")
    p.add_argument("--target-length", type=int, default=100)
    p.add_argument("--size", type=int, default=3, help="grid side for 2d mode")

    p = command("pipeline13", cmd_pipeline13, "thirteen-qubit selective-entanglement pipeline",
                n=False)
    p.set_defaults(n=3)  # the pipeline's chains have three middles
    p.add_argument("--retry-cap", type=_positive_int, default=10_000)

    p = sub.add_parser("verify", help="run the invariant suite (exit 0 iff all pass)")
    p.set_defaults(run=verify)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", default=None, help="output file path")
    # negative control: an RZ(1e-3) on every state verify compares by fidelity
    p.add_argument("--corrupt-gate", action="store_true", help=argparse.SUPPRESS)

    parser.commands = sub.choices  # main's table: command name -> its own parser
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in parser.commands:
        args = parser.commands[argv[0]].parse_args(argv[1:])
    else:  # a missing or unknown command, or a top-level -h
        args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
