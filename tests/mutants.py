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
PROTOCOL = "tests/test_protocol.py"

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
        "draw-rule-strict-comparison",
        "statevector.py",
        "if prob <= PROB_TOL:",
        "if prob < PROB_TOL:",
        (
            f"{SV}::TestDrawOutcome::test_outcome_at_the_tolerance_raises[1e-12-forced]",
            f"{SV}::TestDrawOutcome::test_outcome_at_the_tolerance_raises[1e-12-drawn]",
        ),
    ),
    Mutant(
        "draw-bisect-left",
        "statevector.py",
        "m = bisect.bisect_right(cumulative, rng.random() * total)",
        "m = bisect.bisect_left(cumulative, rng.random() * total)",
        (
            f"{SV}::TestDrawOutcome::test_boundary_uniform_skips_zero_weights[weights0-0.0-1]",
            f"{SV}::TestDrawOutcome::test_boundary_uniform_skips_zero_weights[weights1-0.5-3]",
        ),
    ),
    Mutant(
        "chain-conditionals-p0-p1-swapped",
        "growth.py",
        "tuple(itertools.accumulate(fresh))",
        "tuple(itertools.accumulate(reversed(fresh)))",
        (
            "tests/test_pipeline.py::test_chain_table_replays_draw_x_run[1.0]",
            "tests/test_pipeline.py::test_sub_registers_match_dense_reference[1.0-40-40]",
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
        (f"{GROWTH}::TestRowInvariant::test_flag_walk_matches_witness_property",),
    ),
    Mutant(
        "attach-no-spare-promotion",
        "growth.py",
        "                backbone.append(promoted)\n",
        "                pass\n",
        (f"{GROWTH}::TestRowInvariant::test_flag_walk_matches_witness_property",),
    ),
    Mutant(
        "flag-walk-pops-flagged-top",
        "growth.py",
        "            flags[-1] = 0\n",
        "            flags.pop()\n",
        (
            f"{GROWTH}::TestRowInvariant::test_flag_walk_matches_witness_property",
            f"{GROWTH}::TestGrow1D::test_matches_draw_per_attach_reference[200-0.21-3-seeds1]",
        ),
    ),
    Mutant(
        "flag-walk-length-without-start-flag",
        "growth.py",
        "length = len(flags) + 1 + flags[0] if flags",
        "length = len(flags) + 1 if flags",
        (
            f"{GROWTH}::TestRowInvariant::test_flag_walk_matches_witness_property",
            f"{GROWTH}::TestGrow1D::test_graph_free_matches_witness[200-0.21-3-seeds1]",
        ),
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
    Mutant(
        "teleport-success-negated",
        "protocol.py",
        "if not success_mask(1)[m]:",
        "if success_mask(1)[m]:",
        (
            "tests/test_teleport_retry.py::TestStochasticTeleport::test_success_branch_is_perfect",
            "tests/test_teleport_retry.py::TestStochasticTeleport::test_success_rate",
        ),
    ),
    Mutant(
        "attempt-rescale-by-weight",
        "protocol.py",
        "(maps[m] / math.sqrt(w))",
        "(maps[m] / w)",
        (
            f"{PROTOCOL}::test_held_pair_attempt_matches_dense_route_property",
            f"{PROTOCOL}::test_held_pair_attempt_matches_dense_route[0.3-3]",
            f"{PROTOCOL}::TestChainConstruction::test_failure_branch_termwise",
        ),
    ),
    Mutant(
        "retry-marginals-unnormalized",
        "protocol.py",
        "marginals = (w00 * p00 / weight, w01 * p01 / weight, w10 * p10 / weight, w11 * p11 / weight)",
        "marginals = (w00 * p00, w01 * p01, w10 * p10, w11 * p11)",
        (
            "tests/test_pipeline.py::test_retry_matches_attempt_loop_property",
            "tests/test_pipeline.py::test_sub_registers_match_dense_reference[1.0-40-40]",
        ),
    ),
    Mutant(
        "dead-link-rule-reads-p01-p10",
        "protocol.py",
        "return 2.0 * p * (marginals[0] + marginals[3])",
        "return 2.0 * p * (marginals[1] + marginals[2])",
        (
            f"{PROTOCOL}::test_dead_link_rule_matches_dense_outcome_probability_property",
            "tests/test_teleport_retry.py::TestGhzConcatenation::test_forced_success_theta_zero_exact",
        ),
    ),
    Mutant(
        "dead-link-rule-relative-error-1e-9",
        "protocol.py",
        "return 2.0 * p * (marginals[0] + marginals[3])",
        "return 2.0 * p * (marginals[0] + marginals[3]) * (1.0 + 1e-9)",
        (f"{PROTOCOL}::test_dead_link_rule_matches_dense_outcome_probability_property",),
    ),
    Mutant(
        "dead-link-threshold-1e-3",
        "protocol.py",
        "DEAD_LINK_PROBABILITY = 1e-9",
        "DEAD_LINK_PROBABILITY = 1e-3",
        ("tests/test_pipeline.py::test_restart_cost_values",),
    ),
    Mutant(
        "restart-cost-without-stage-one",
        "growth.py",
        "cost, last = (2.0 / p + attempts) / (1.0 - given_up), walk",
        "cost, last = attempts / (1.0 - given_up), walk",
        (
            "tests/test_pipeline.py::test_restart_cost_matches_dict_walk[1.0]",
            "tests/test_pipeline.py::test_restart_cost_values",
        ),
    ),
    Mutant(
        "walk-gives-up-below-two",
        "growth.py",
        "odds, width = math.log(2.0 * p * cost - 1.0), gain - loss",
        "odds, width = math.log(p * cost - 1.0), gain - loss",
        (
            "tests/test_pipeline.py::test_restart_cost_matches_dict_walk[0.3]",
            "tests/test_pipeline.py::test_restart_cost_matches_dict_walk[2.0]",
        ),
    ),
    Mutant(
        "retry-gives-up-below-two",
        "protocol.py",
        "if held_pair_success_probability(marginals, p) * restart_cost < 1.0:",
        "if held_pair_success_probability(marginals, p) * restart_cost < 2.0:",
        (
            "tests/test_pipeline.py::test_retry_gives_up_where_a_restart_is_worth_more[0.3]",
            "tests/test_pipeline.py::test_retry_gives_up_where_a_restart_is_worth_more[2.5]",
        ),
    ),
    Mutant(
        "retry-scale-by-weight",
        "protocol.py",
        "root = math.sqrt(weight)",
        "root = weight",
        (
            "tests/test_pipeline.py::test_retry_matches_attempt_loop_property",
            "tests/test_pipeline.py::test_pipeline_reaches_growth_unit[0.3]",
        ),
    ),
    Mutant(
        "retry-no-register-update",
        "growth.py",
        "        sv._split_pair(ends, 1, 2)[...] *= np.array(scales).reshape(1, 2, 1, 2, 1)\n",
        "",
        (
            "tests/test_pipeline.py::test_sub_registers_match_dense_reference[1.0-40-40]",
            "tests/test_acceptance.py::test_criterion_07_pipeline",
        ),
    ),
    Mutant(
        "restart-cost-second-iterate",
        "growth.py",
        "if walk == last:",
        "if last is not None:",
        (
            "tests/test_pipeline.py::test_restart_cost_matches_dict_walk[1.0]",
            "tests/test_pipeline.py::test_restart_cost_matches_dict_walk[2.0]",
        ),
    ),
    Mutant(
        "fusion-start-skewed",
        "growth.py",
        "FUSION_START = (0.25, 0.25, 0.25, 0.25)",
        "FUSION_START = (0.3, 0.2, 0.2, 0.3)",
        (
            "tests/test_pipeline.py::test_fusion_starts_at_uniform_marginals[1.0]",
            "tests/test_pipeline.py::test_sub_registers_match_dense_reference[1.0-40-40]",
        ),
    ),
    Mutant(
        "cluster-pair-table-drops-parity-z",
        "growth.py",
        "        if m.bit_count() & 1:\n            apply_gate(pair, 1, \"Z\")\n",
        "",
        (
            "tests/test_pipeline.py::test_cluster_pair_table_is_the_gate_route[0.3]",
            "tests/test_pipeline.py::test_pipeline_reaches_growth_unit[0.3]",
        ),
    ),
    Mutant(
        "fusion-charges-one-application",
        "growth.py",
        "        stats.protocol_applications += attempts\n        if scales is None:",
        "        stats.protocol_applications += 1\n        if scales is None:",
        (
            "tests/test_pipeline.py::test_sub_registers_match_dense_reference[0.3-40-20]",
            "tests/test_pipeline.py::test_sub_registers_match_dense_reference[2.5-4-500]",
        ),
    ),
    Mutant(
        "no-attempt-cap-check",
        "growth.py",
        "if drawn > ATTEMPT_CAP:",
        "if False:",
        (f"{GROWTH}::TestGrow1D::test_attempt_cap[1d]", f"{GROWTH}::TestGrow1D::test_attempt_cap[2d]"),
    ),
    Mutant(
        "block-not-clamped-to-cap",
        "growth.py",
        "    block = max(1, min(block, ATTEMPT_CAP))\n",
        "",
        (
            f"{GROWTH}::TestGrow1D::test_capped_build_takes_at_most_two_caps[1d]",
            f"{GROWTH}::TestGrow1D::test_capped_build_takes_at_most_two_caps[2d-block-above-cap]",
        ),
    ),
    Mutant(
        "x-shorten-keeps-far-edges",
        "growth.py",
        "    graph.hand_over(special, keep)\n",
        "    graph.add_edge(special, keep)\n",
        (
            f"{GROWTH}::TestRewriteConsistency::test_shorten_interior[0]",
            f"{GROWTH}::TestRewriteConsistency::test_shorten_interior[1]",
        ),
    ),
    Mutant(
        "hand-over-keeps-shared-edge",
        "growth.py",
        "                self._adj[inheritor] ^= {nb}\n                self._adj[nb] ^= {inheritor}\n",
        "                self.add_edge(inheritor, nb)\n",
        (f"{GROWTH}::TestRewriteConsistency::test_primitives_match_statevector_property",),
    ),
    Mutant(
        "cached-target-writable",
        "growth.py",
        "    target.amps.flags.writeable = False\n",
        "",
        ("tests/test_pipeline.py::test_three_node_target_is_shared_and_read_only",),
    ),
    Mutant(
        "json-without-final-newline",
        "cli.py",
        '    yield "\\n"\n',
        "",
        (
            "tests/test_cli.py::TestFormatsAndCodes::test_json_is_the_indented_dump[args0]",
            "tests/test_cli.py::TestFormatsAndCodes::test_empty_rows",
        ),
    ),
    Mutant(
        "columns-constant-one-row-short",
        "cli.py",
        "[_fmt(v)] * count",
        "[_fmt(v)] * (count - 1)",
        (
            "tests/test_cli.py::TestFormatsAndCodes::test_columns_write_the_rows_bytes_property",
            "tests/test_cli.py::TestSequencesCommand::test_row_counts[5-10]",
        ),
    ),
    Mutant(
        "columns-list-formatted-by-str",
        "cli.py",
        "list(map(_fmt, v))",
        "list(map(str, v))",
        (
            "tests/test_cli.py::TestFormatsAndCodes::test_columns_write_the_rows_bytes_property",
            "tests/test_golden.py::test_corpus_reproduces",
        ),
    ),
    Mutant(
        "dispatch-indexes-command-table",
        "cli.py",
        "    if argv and argv[0] in parser.commands:\n",
        "    if argv and not argv[0].startswith(\"-\"):\n",
        (
            "tests/test_cli.py::TestDispatch::test_top_level_outcomes[frobnicate]",
            "tests/test_golden.py::test_corpus_reproduces",
        ),
    ),
    Mutant(
        "out-checked-after-the-run",
        "cli.py",
        "        _check_out(args.out)\n",
        "",
        (
            "tests/test_cli.py::TestFormatsAndCodes::test_unopenable_out_fails_before_the_run",
            "tests/test_cli.py::TestFormatsAndCodes::test_unopenable_out_exits_2[csv]",
        ),
    ),
    Mutant(
        "sequences-oracle-against-itself",
        "cli.py",
        "if not np.array_equal(oracle, rules):",
        "if not np.array_equal(oracle, oracle):",
        ("tests/test_cli.py::TestSequencesCommand::test_rules_mismatch_detected",),
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
