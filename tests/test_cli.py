"""Command-line interface: formats, exit codes, reproducibility."""

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from reference import emit_rows
from strategies import column_sets

from clusterforge import cli
from clusterforge import growth as gr
from clusterforge import protocol as pr
from clusterforge import statevector as sv

TESTS = Path(__file__).resolve().parent


def flip_rules_n3(monkeypatch):
    """Negative control: the rules' masks for n = 1, 3, 5, with sequence 000
    flipped into n = 3.  They are built before the patch, so the real
    recursion and its cache never see the flip."""
    masks = {n: pr.rule_based_sequences(n).copy() for n in (1, 3, 5)}
    masks[3][0] = True
    monkeypatch.setattr(pr, "rule_based_sequences", masks.__getitem__)


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, buf.getvalue()


class TestSequencesCommand:
    @pytest.mark.parametrize("n,rows", [(1, 1), (3, 3), (5, 10)])
    def test_row_counts(self, n, rows):
        code, out = run_cli(["sequences", "--n", str(n)])
        assert code == 0
        lines = [l for l in out.strip().split("\n") if l]
        assert len(lines) == rows + 1  # header + rows

    def test_header_carries_config(self):
        code, out = run_cli(["sequences", "--n", "3", "--seed", "99"])
        header = out.split("\n", 1)[0].split(",")
        assert {"n", "theta", "seed", "trials"} <= set(header)

    def test_rules_mismatch_detected(self, monkeypatch, capsys):
        flip_rules_n3(monkeypatch)
        code, out = run_cli(["sequences", "--n", "3"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().err
        header, *lines = out.strip().split("\n")
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        rows = {row["sequence"]: row for row in rows}
        assert rows.keys() == {"000", "010", "101", "111"}
        assert (rows["000"]["in_oracle"], rows["000"]["in_rules"]) == ("0", "1")
        assert all(rows[s]["in_oracle"] == rows[s]["in_rules"] == "1" for s in ("010", "101", "111"))


class TestProtocolStatsCommand:
    def test_default_grid(self):
        code, out = run_cli(["protocol-stats", "--n", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["p_closed"]) == pytest.approx(0.375)
        assert float(first["p_oracle"]) == pytest.approx(0.375, abs=1e-10)

    def test_explicit_grid(self):
        code, out = run_cli(["protocol-stats", "--n", "1", "--theta", "0,0.3"])
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 2
        assert float(rows[0].split(",")[-3]) == pytest.approx(0.5)

    def test_single_theta_is_a_one_point_grid(self):
        code, out = run_cli(["protocol-stats", "--n", "3", "--theta", "0.5"])
        assert code == 0
        header, *rows = out.strip().split("\n")
        assert len(rows) == 1
        assert dict(zip(header.split(","), rows[0].split(",")))["theta"] == "0.5"


class TestRetryCommand:
    def test_cumulative_column(self):
        code, out = run_cli(["retry", "--n", "1", "--theta", "1.0", "--max-failures", "30"])
        assert code == 0
        last = out.strip().split("\n")[-1].split(",")
        assert float(last[-1]) == pytest.approx(0.5, abs=1e-6)


class TestGrowCommand:
    def test_1d_reports_both_conventions(self, tmp_path):
        out_file = tmp_path / "grow.csv"
        code, out = run_cli(
            [
                "grow", "--mode", "1d", "--trials", "40", "--target-length", "50",
                "--seed", "5", "--out", str(out_file),
            ]
        )
        assert code == 0
        header, row = out_file.read_text().strip().split("\n")
        record = dict(zip(header.split(","), row.split(",")))
        assert "23*l_C" in record["t1d_per_length_published"]
        assert float(record["t1d_per_length_formula"]) == pytest.approx(115.7, abs=0.1)
        assert float(record["protocols_per_length_raw"]) > float(
            record["protocols_per_length_mc"]
        )

    def test_1d_s_a_from_the_runs_rounds(self):
        # s_a_mc is the growth runs' own mean rounds per fusion cycle: tens of
        # thousands of cycles here, against the formula's 3.88
        args = ["grow", "--mode", "1d", "--target-length", "200", "--trials", "20", "--seed", "2"]
        code, out = run_cli(args)
        assert code == 0
        header, row = out.strip().split("\n")
        record = dict(zip(header.split(","), row.split(",")))
        p = float(record["p"])
        stats = [
            gr.grow_1d(200, p, 3, np.random.default_rng([2, 10, i]))[1]
            for i in range(20)
        ]
        rounds = sum(st.prep_rounds for st in stats)
        cycles = sum(st.pair_fusion_attempts for st in stats)
        assert cycles > 10_000
        assert record["s_a_mc"] == cli._fmt(rounds / cycles)
        assert float(record["s_a_mc"]) == pytest.approx(float(record["s_a_formula"]), abs=0.05)

    def test_1d_without_net_growth_exits_2(self):
        # n = 3 at theta = 1.6 has a negative closed-form length gain, so a
        # growth run would never reach its target
        code, out = run_cli(["grow", "--mode", "1d", "--theta", "1.6", "--trials", "1"])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("target", [3, 5, 7])
    def test_1d_target_too_short_for_a_gain_pair_exits_2(self, target):
        # below 8 no attempt pair starts 5 below the target, so the length
        # gain would divide by zero pairs
        args = ["grow", "--mode", "1d", "--target-length", str(target), "--trials", "2"]
        code, out = run_cli(args)
        assert code == 2
        assert out == ""

    def test_1d_shortest_target_with_a_gain_pair(self):
        code, out = run_cli(["grow", "--mode", "1d", "--target-length", "8", "--trials", "3"])
        assert code == 0
        header, row = out.strip().split("\n")
        record = dict(zip(header.split(","), row.split(",")))
        assert np.isfinite(float(record["length_gain_mc"]))

    def test_1d_zero_paired_gain_reports(self):
        # every gain pair of this run nets 0: the paired gain reads 0 and
        # the protocols per length inf, which the JSON form writes as Infinity
        args = ["grow", "--mode", "1d", "--target-length", "8", "--trials", "1", "--seed", "22"]
        code, out = run_cli(args)
        assert code == 0
        header, row = out.strip().split("\n")
        record = dict(zip(header.split(","), row.split(",")))
        assert (record["length_gain_mc"], record["protocols_per_length_mc"]) == ("0", "inf")
        code, out = run_cli([*args, "--format", "json"])
        assert code == 0
        [record] = json.loads(out)
        assert record["length_gain_mc"] == 0 and record["protocols_per_length_mc"] == math.inf

    def test_1d_deterministic_limit(self):
        code, out = run_cli(
            ["grow", "--mode", "1d", "--trials", "5", "--target-length", "21",
             "--theta", "0", "--n", "1", "--seed", "2"]
        )
        assert code == 0

    def test_2d_grid_report(self):
        code, out = run_cli(
            ["grow", "--mode", "2d", "--size", "2", "--trials", "5", "--seed", "3"]
        )
        assert code == 0
        header, row = out.strip().split("\n")
        record = dict(zip(header.split(","), row.split(",")))
        assert record["grids_completed"] == "5"
        assert record["overhead_reference"] == "64"
        assert "65*N+10" in record["t2d_published"]

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                ["--size", "3", "--trials", "4", "--seed", "1"],
                "3,0.3,1,4,0.35843819866,3,4,5186.25,404.888888889,",
            ),
            (
                ["--size", "10", "--trials", "1", "--seed", "0"],
                "3,0.3,0,1,0.35843819866,10,1,56919,285.52,",
            ),
        ],
    )
    def test_2d_seeded_stdout_pinned(self, args, expected):
        # the exact bytes of seeded 2D runs, whose builds take one uniform per
        # fusion outcome and then charge every unit in one batched draw: a
        # change to how a build draws from the generator shows here and must
        # be declared as a stream change
        code, out = run_cli(["grow", "--mode", "2d", *args])
        assert code == 0
        header = (
            "n,theta,seed,trials,p,grid,grids_completed,mean_protocol_applications,"
            "mean_overhead_per_qubit,overhead_reference,t2d_formula,t2d_published,note\n"
        )
        tail = (
            "64,645.529472717*N+10,65*N+10,"
            "published shorthand differs from the displayed formula; both reported\n"
        )
        assert out == header + expected + tail


class TestPipelineCommand:
    def test_runs(self):
        code, out = run_cli(["pipeline13", "--theta", "0.3", "--trials", "2", "--seed", "6"])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 2

    def test_seed_with_norm_drift(self):
        # this seed's ends come back with norm^2 - 1 = -2.2e-16, no drift to
        # speak of; test_pipeline.py::test_fusion_attempt_absorbs_norm_drift
        # feeds a stage-3 attempt ends that drifted by -3e-12
        code, out = run_cli(
            ["pipeline13", "--theta", "1.0", "--trials", "1", "--seed", "1159426114"]
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert float(dict(zip(header.split(","), row.split(",")))["fidelity"]) >= 1 - 1e-9

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_retry_cap_exits_2(self, cap):
        # a cap below one allows no protocol round: an invalid argument, not
        # a run that stopped at its cap
        assert run_cli(["pipeline13", "--retry-cap", cap, "--trials", "1"]) == (2, "")

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                ["--theta", "1.0", "--trials", "4", "--seed", "1"],
                "3,1,1,4,0,1,10,45,0\n3,1,1,4,1,1,6,25,0\n"
                "3,1,1,4,2,1,11,40,0\n3,1,1,4,3,1,9,30,0\n",
            ),
            (
                ["--theta", "2.5", "--trials", "4", "--seed", "1"],
                "3,2.5,1,4,0,1,1392,6345,1\n3,2.5,1,4,1,1,418,2085,0\n"
                "3,2.5,1,4,2,1,809,3650,0\n3,2.5,1,4,3,1,172,715,0\n",
            ),
        ],
    )
    def test_seeded_stdout_pinned(self, args, expected):
        # the exact bytes of seeded runs: a change to how the pipeline draws
        # from the generator shows here and must be declared as a stream change
        code, out = run_cli(["pipeline13", *args])
        assert code == 0
        header = "n,theta,seed,trials,trial,fidelity,protocol_applications,time_steps,restarts\n"
        assert out == header + expected


class TestVerifyCommand:
    def test_passes_clean(self, tmp_path):
        code, out = run_cli(["verify", "--seed", "7", "--out", str(tmp_path / "v.txt")])
        assert code == 0
        assert "PASS overall" in out

    @pytest.mark.parametrize("seed", ["18", "595"])
    def test_long_pipeline_check_still_reports(self, seed):
        # the theta = 2.5 pipeline run of seed 18 passed 10,000 applications,
        # the pipeline's default cap, under the 1e-9 give-up key, and seed
        # 595's takes 10,708 under s * C < 1; verify's own cap lets both finish
        code, out = run_cli(["verify", "--seed", seed])
        assert code == 0
        assert "PASS overall" in out

    def test_corrupted_gate_detected(self):
        # the negative control fails exactly the fidelity checks, reproducibly,
        # and leaves every other line as the clean run prints it
        _, clean = run_cli(["verify", "--seed", "7"])
        runs = [run_cli(["verify", "--seed", "7", "--corrupt-gate"]) for _ in range(2)]
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == 1

        def by_check(text):
            return {line.split(":")[0].split()[1]: line for line in text.splitlines()}

        clean, corrupt = by_check(clean), by_check(out)
        failing = {name for name, line in corrupt.items() if line.startswith("FAIL")}
        pipeline = {f"pipeline_theta_{t}" for t in (0.0, 0.3, 1.0, 2.5)}
        assert failing == {"teleportation", "ghz_concatenation", "overall"} | pipeline
        assert corrupt.keys() == clean.keys()
        assert all(corrupt[k] == clean[k] for k in clean.keys() - failing)
        # the compared states were rotated, not the shared, read-only target
        fresh = gr.graph_state_target(4, [(0, 1), (1, 2), (1, 3)])
        np.testing.assert_array_equal(gr.three_node_target().amps, fresh.amps)

    @pytest.mark.parametrize("extra", [[], ["--corrupt-gate"]])
    def test_check_times_on_stderr(self, extra, capsys):
        # one "# <check>: <s> s" line per check on stderr, in the order of
        # the check lines on stdout, whose last line is the overall verdict
        _, out = run_cli(["verify", "--seed", "7", *extra])
        checks = [line.split(":")[0].split()[1] for line in out.splitlines()[:-1]]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(checks) == 17
        for name, line in zip(checks, err):
            assert re.fullmatch(rf"# {re.escape(name)}: \d+\.\d{{6}} s", line), line

    def test_rules_mismatch_detected(self, monkeypatch):
        flip_rules_n3(monkeypatch)
        code, out = run_cli(["verify", "--seed", "7"])
        assert code == 1
        failing = {line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")}
        assert failing == {"FAIL rules_equal_oracle_n3", "FAIL overall"}

    def test_stdout_independent_of_hash_seed(self):
        # no printed figure may depend on the iteration order of a str set
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = set()
        for hash_seed in ("0", "1"):
            result = subprocess.run(
                [sys.executable, "-m", "clusterforge.cli", "verify", "--seed", "7"],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            )
            assert result.returncode == 0, result.stderr
            outs.add(result.stdout)
        assert len(outs) == 1


class TestFormatsAndCodes:
    def test_json_format(self):
        code, out = run_cli(["sequences", "--n", "1", "--format", "json"])
        payload = json.loads(out)
        assert payload[0]["sequence"] == "1"

    @pytest.mark.parametrize(
        "args",
        [
            ["sequences", "--n", "11"],  # several thousand tokens: more than one piece
            ["protocol-stats", "--n", "3"],
            ["retry", "--n", "3", "--max-failures", "4"],
            ["pipeline13", "--trials", "2", "--seed", "3"],
        ],
    )
    def test_json_is_the_indented_dump(self, args, tmp_path):
        """JSON is written a piece at a time, and the bytes, on stdout and in
        ``--out``, are those of the one-shot ``json.dumps(rows, indent=1)``."""
        out_file = tmp_path / "rows.json"
        code, out = run_cli([*args, "--format", "json", "--out", str(out_file)])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=1) + "\n"
        assert out_file.read_bytes() == out.encode()

    def test_empty_rows(self):
        json_args, csv_args = argparse.Namespace(fmt="json"), argparse.Namespace(fmt="csv")
        columns = {"n": 3, "sequence": []}  # a constant and a list column of no rows
        assert "".join(cli._emit(columns, json_args)) == json.dumps([], indent=1) + "\n" == "[]\n"
        assert "".join(cli._emit(columns, csv_args)) == "\n"

    @settings(max_examples=300)
    @given(column_sets())
    def test_columns_write_the_rows_bytes_property(self, columns_and_rows):
        # the columnar writer prints, in CSV and in JSON, the bytes of the
        # row-dict writer on the rows the columns stand for
        columns, rows = columns_and_rows
        for fmt in ("csv", "json"):
            args = argparse.Namespace(fmt=fmt)
            assert "".join(cli._emit(columns, args)) == "".join(emit_rows(rows, args))

    def test_csv_uses_lf_and_12_digits(self, tmp_path):
        out_file = tmp_path / "stats.csv"
        run_cli(["protocol-stats", "--n", "3", "--theta", "0.3", "--out", str(out_file)])
        raw = out_file.read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        assert "0.35843819866" in text  # 12 significant digits

    def test_invalid_arguments_exit_2(self):
        code, _ = run_cli(["sequences", "--n", "4"])
        assert code == 2
        code, _ = run_cli(["retry", "--trials", "0"])
        assert code == 2
        # flags a command does not read, a theta list where one theta is
        # read, and a negative n, which the protocol layer rejects
        for args in (
            ["pipeline13", "--max-qubits", "13"],
            ["retry", "--theta", "0.3,1.0"],
            ["pipeline13", "--n", "5", "--trials", "1"],
            ["verify", "--format", "json"],
            ["retry", "--n", "-1"],
        ):
            assert run_cli(args) == (2, ""), args
        # n past the register cap, rejected before any table is built, and
        # a non-finite theta, in a comma list too
        for args in (
            ["sequences", "--n", "23"],
            ["retry", "--n", "23"],
            ["protocol-stats", "--n", "23"],
            ["protocol-stats", "--theta", "nan"],
            ["protocol-stats", "--theta", "0.3,inf"],
            ["retry", "--theta", "nan"],
            ["retry", "--theta=-inf"],
            ["pipeline13", "--theta", "nan", "--trials", "1"],
        ):
            assert run_cli(args) == (2, ""), args
        # theta = 1.15 puts p = 0.186 between the paired-average gain's zero
        # and 5p = 1, where no row grows, and a grid side of 0 has no lattice
        for args in (
            ["grow", "--mode", "1d", "--theta", "1.15", "--target-length", "200", "--trials", "1"],
            ["grow", "--mode", "2d", "--size", "3", "--theta", "1.15", "--trials", "1"],
            ["grow", "--mode", "2d", "--size", "0", "--trials", "1"],
        ):
            assert run_cli(args) == (2, ""), args

    @pytest.mark.parametrize(
        "args",
        [
            ["retry", "--n", "3", "--max-failures", "2"],
            ["sequences", "--n", "3", "--format", "json"],
            ["verify", "--seed", "7"],
        ],
        ids=["csv", "json", "verify"],
    )
    def test_unopenable_out_exits_2(self, args, tmp_path, capsys):
        # an --out path that cannot be opened is an invalid argument: no
        # traceback, nothing on stdout, one error line besides verify's times
        out = tmp_path / "missing" / "x.csv"
        assert run_cli([*args, "--out", str(out)]) == (2, "")
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("# ")]
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
        assert not out.parent.exists()

    def test_unopenable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        """The path is checked before the command computes: the pipeline is
        never called, and the exit code and error line are as before."""

        def must_not_run(*args, **kwargs):
            raise AssertionError("the pipeline ran before --out was checked")

        monkeypatch.setattr(gr, "run_thirteen_qubit_pipeline", must_not_run)
        out = tmp_path / "missing" / "p.csv"
        assert run_cli(["pipeline13", "--trials", "3", "--out", str(out)]) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot open --out: [Errno 2] No such file or directory: '{out}'"]
        assert not out.parent.exists()

    def test_raising_run_leaves_out_as_it_was(self, tmp_path, monkeypatch):
        """A command that raises after the check leaves an existing ``--out``
        file untouched and makes no new one."""

        def capped(*args, **kwargs):
            raise pr.RetryLimitError("pipeline retry cap exhausted")

        monkeypatch.setattr(gr, "run_thirteen_qubit_pipeline", capped)
        existing, new = tmp_path / "old.csv", tmp_path / "new.csv"
        existing.write_bytes(b"kept,bytes\r\n1,2\n")
        for out in (existing, new):
            with pytest.raises(pr.RetryLimitError):
                cli.main(["pipeline13", "--trials", "1", "--out", str(out)])
        assert existing.read_bytes() == b"kept,bytes\r\n1,2\n"
        assert sorted(tmp_path.iterdir()) == [existing]

    def test_reproducible_outputs(self, tmp_path):
        files = []
        for i in (1, 2):
            out = tmp_path / f"out{i}.csv"
            run_cli(["pipeline13", "--theta", "0.3", "--trials", "3", "--seed", "11",
                     "--out", str(out)])
            files.append(out.read_bytes())
        assert files[0] == files[1]


class TestModuleState:
    @pytest.mark.parametrize(
        "args",
        [
            ["sequences"],
            ["protocol-stats"],
            ["retry", "--max-failures", "3"],
            ["grow", "--mode", "1d", "--trials", "2", "--target-length", "20"],
            ["pipeline13", "--trials", "1"],
            ["verify"],
            ["verify", "--corrupt-gate"],
        ],
        ids=["sequences", "protocol-stats", "retry", "grow-1d", "pipeline13", "verify", "verify-corrupt-gate"],
    )
    def test_flags_leave_module_globals_alone(self, args):
        modules = (sv, pr, gr, cli)
        before = [dict(vars(m)) for m in modules]
        code, _ = run_cli(args)
        assert code == (1 if "--corrupt-gate" in args else 0)
        after = [dict(vars(m)) for m in modules]
        for old, new in zip(before, after):
            assert old.keys() == new.keys()
            assert [k for k in old if old[k] is not new[k]] == []


class TestParserReuse:
    """The parser is built once per process; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_defaults_return_after_an_override(self):
        run_cli(["retry", "--max-failures", "3"])
        code, out = run_cli(["retry"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 26
        run_cli(["grow", "--mode", "2d", "--size", "2", "--trials", "1"])
        code, out = run_cli(["grow", "--trials", "1", "--target-length", "20"])
        assert code == 0
        header, row = out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["target_length"] == "20"

    def test_exit_2_leaves_no_trace(self, capsys):
        valid = ["retry", "--n", "3", "--max-failures", "4"]
        cli._build_parser.cache_clear()
        first = run_cli(valid)
        assert run_cli(["retry", "--n", "2"])[0] == 2
        assert run_cli(valid) == first
        assert capsys.readouterr().err.count("error:") == 1

    def test_help_twice(self):
        first = run_cli(["--help"])
        assert first[0] == 0 and "usage: clusterforge" in first[1]
        assert run_cli(["--help"]) == first


def _readme_examples() -> list:
    readme = (TESTS.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("clusterforge ")]


def _golden_argvs() -> list:
    return [entry["argv"] for name in ("golden.json", "golden_full.json")
            for entry in json.loads((TESTS / name).read_text())["entries"]]


def _parse(parse, argv):
    """The namespace's fields of one parse, or the exit code argparse gave."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


class TestDispatch:
    """``main`` hands a named command's arguments to that command's parser."""

    @pytest.mark.parametrize(
        "argv",
        [argv for argv in _golden_argvs() + _readme_examples() if argv[0] in cli._build_parser().commands],
        ids=shlex.join,
    )
    def test_command_parser_equals_the_full_parse(self, argv):
        # the one parse sees every field the two-level parse sets but the
        # command's name, and rejects what it rejects with the same code
        parser = cli._build_parser()
        full = _parse(parser.parse_args, argv)
        if isinstance(full, dict):
            assert full.pop("command") == argv[0]
        assert _parse(parser.commands[argv[0]].parse_args, argv[1:]) == full

    def test_unrecognized_argument_reported_by_the_command(self, capsys):
        assert run_cli(["pipeline13", "--max-qubits", "13"]) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "clusterforge pipeline13: error: unrecognized arguments: --max-qubits 13"

    @pytest.mark.parametrize(
        "argv, code, parser, err",
        [
            (["--help"], 0, None, ""),
            (["retry", "--help"], 0, "retry", ""),
            ([], 2, None, "clusterforge: error: the following arguments are required: command"),
            (["frobnicate"], 2, None, "clusterforge: error: argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["help", "retry-help", "no-arguments", "frobnicate"],
    )
    def test_top_level_outcomes(self, argv, code, parser, err, capsys):
        # help goes to stdout from the parser that owns it; a missing or
        # unknown command is the top-level parser's error, with exit 2
        top = cli._build_parser()
        helped = top.commands[parser] if parser else top
        assert run_cli(argv) == (code, helped.format_help() if code == 0 else "")
        error = capsys.readouterr().err
        assert error.splitlines()[-1].startswith(err) if err else error == ""


def test_readme_cli_examples_parse():
    # a removed or renamed flag must not linger in the docs; nothing is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("clusterforge ")]
    assert examples
    for argv in examples:
        try:
            cli._build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_console_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "clusterforge.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert "usage: clusterforge" in result.stdout
