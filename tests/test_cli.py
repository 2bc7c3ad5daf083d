"""CLI contract: parsing, config merge, exit codes, files, determinism."""

import csv
import decimal
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capmodel as cm
from capmodel import UNBOUNDED
from capmodel.cli import _COMMANDS, _FLAGS, RunConfig, _read_pairs, build_parser, main, parse_config
from capmodel.serialize import read_trajectory_csv


def run_cli(args):
    return main(args)


class TestParseConfig:
    def test_eval_flags(self):
        config = parse_config(["eval", "--rho", "0.5", "--r", "30", "--n", "40"])
        assert config == RunConfig(
            command="eval",
            rho=Fraction(1, 2),
            r=30,
            n=40,
            backend="exact",
            format="csv",
            out=None,
        )

    def test_unbounded_token(self):
        config = parse_config(["trajectory", "--rho", "1", "--r", "unbounded", "--n-max", "20"])
        assert config.r is UNBOUNDED
        assert config.n_max == 20
        assert config.rho == 1

    def test_rho_out_of_range_is_usage_error(self, capsys):
        assert run_cli(["eval", "--rho", "1.5", "--r", "1", "--n", "3"]) == 2
        assert "rho" in capsys.readouterr().err

    def test_rho_float_notation_rejected(self, capsys):
        assert run_cli(["eval", "--rho", "5e-1", "--r", "1", "--n", "3"]) == 2
        assert "rho" in capsys.readouterr().err

    def test_bad_integer_names_field(self, capsys):
        assert run_cli(["eval", "--rho", "0.5", "--r", "1", "--n", "many"]) == 2
        assert "n:" in capsys.readouterr().err

    def test_missing_required_field(self, capsys):
        assert run_cli(["eval", "--rho", "0.5"]) == 2
        assert "n:" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0

    @pytest.mark.parametrize("argv", [[], ["evl"], ["-h"]], ids=["none", "typo", "help"])
    def test_full_parser_lists_every_command(self, capsys, argv):
        assert run_cli(argv) == (0 if argv == ["-h"] else 2)
        captured = capsys.readouterr()
        assert "{" + ",".join(_COMMANDS) + "}" in captured.out + captured.err
        if argv == ["-h"]:
            for command, (summary, _) in _COMMANDS.items():
                assert f"{command}  " in captured.out and summary in captured.out

    def test_config_file_merge(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rho": "0.5", "r": 30, "n_max": 40}))
        config = parse_config(["trajectory", "--config", str(config_path), "--n-max", "20"])
        assert config.rho == Fraction(1, 2)
        assert config.r == 30
        assert config.n_max == 20  # flag overrides config value

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rho": "0.5", "mystery": 1}))
        assert run_cli(["trajectory", "--config", str(config_path)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_config_rejects_float_rho(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rho": 0.5, "n_max": 5}))
        assert run_cli(["trajectory", "--config", str(config_path)]) == 2
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [True, 7, [], {"path": "x"}])
    def test_config_out_must_be_a_string(self, tmp_path, capsys, out):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rho": "1/2", "n": 3, "out": out}))
        assert run_cli(["eval", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out:")

    @pytest.mark.parametrize(
        "command, values, field",
        [("validate", {"tol": True}, "tol"), ("oracle", {"n": 3, "z_max": True}, "z-max")],
    )
    def test_config_bool_is_not_a_number(self, tmp_path, capsys, command, values, field):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rho": "1/2", **values}))
        assert run_cli([command, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}:")

    @pytest.mark.parametrize(
        "args, field",
        [
            (["validate", "--rho", "1/2", "--n-max", "3", "--tol", "inf"], "tol"),
            (["oracle", "--rho", "1/2", "--n", "3", "--z-max", "Infinity"], "z-max"),
        ],
    )
    def test_infinite_tolerance_flag_rejected(self, capsys, args, field):
        # an infinite tolerance could never fail the check it sets
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {field}: the value must be a positive finite real number, got inf\n"
        )

    def test_non_numeric_tolerance_flag_rejected(self, capsys):
        args = ["validate", "--rho", "1/2", "--r", "30", "--n-max", "40", "--tol", "abc"]
        assert run_cli(args) == 2
        assert capsys.readouterr() == ("", "error: tol: expected a number, got 'abc'\n")

    @pytest.mark.parametrize(
        "command, text, key, field",
        [
            ("validate", '{"rho": "1/2", "n_max": 3, "tol": 1e999}', "tol", "tol"),
            ("oracle", '{"rho": "1/2", "n": 3, "z_max": 1e999}', "z_max", "z-max"),
        ],
    )
    def test_infinite_tolerance_config_rejected(self, tmp_path, capsys, command, text, key, field):
        config_path = tmp_path / "run.json"
        config_path.write_text(text)
        assert json.loads(config_path.read_text())[key] == float("inf")
        assert run_cli([command, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {field}: the value must be a positive finite real number, got inf\n"
        )

    def test_config_integer_past_the_double_range_is_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"rho": "1/2", "n_max": 3, "tol": 1' + "0" * 400 + "}")
        assert run_cli(["validate", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: tol: the value must be a positive finite real number, got inf\n"
        )

    @pytest.mark.parametrize(
        "values, flags",
        [
            ({"r": 5, "n_max": None}, ["hump", "--r", "5"]),
            ({"n_max": None}, ["validate"]),
            ({"n": 3, "trials": None, "seed": None}, ["oracle", "--n", "3"]),
            ({"n": 4, "r": None}, ["eval", "--n", "4"]),
            ({"r_values": "1,2", "n_max": None}, ["sweep", "--r-values", "1,2"]),
        ],
    )
    def test_config_null_is_the_same_as_absent(self, tmp_path, values, flags):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rho": "1/2", **values}))
        from_config = parse_config([flags[0], "--config", str(config_path)])
        assert from_config == parse_config([*flags, "--rho", "1/2"])

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe{}", "error: config: invalid JSON in "),
            (b'{"rho": "1/2",', "error: config: invalid JSON in "),
            (b'["rho", "1/2"]', "error: config: top level must be a JSON object\n"),
        ],
    )
    def test_unreadable_config_is_a_usage_error(self, tmp_path, capsys, content, message):
        config_path = tmp_path / "run.json"
        config_path.write_bytes(content)
        assert run_cli(["validate", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert len(captured.err.splitlines()) == 1

    def test_config_directory_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli(["validate", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: cannot read {str(tmp_path)!r}: ")

    def test_config_r_values_as_a_json_list(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rho": "1/2", "r_values": [5, "10", 20]}))
        assert parse_config(["sweep", "--config", str(config_path)]).r_values == (5, 10, 20)
        config_path.write_text(json.dumps({"rho": "1/2", "r_values": []}))
        assert run_cli(["sweep", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == "error: r-values: must be nonempty\n"

    def test_config_null_for_a_required_key(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rho": "1/2", "r": None}))
        assert run_cli(["hump", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == "error: r: is required\n"

    def test_sweep_r_values(self):
        config = parse_config(["sweep", "--rho", "0.5", "--r-values", "5,10,20"])
        assert config.r_values == (5, 10, 20)

    def test_figure_id_validated(self, capsys):
        assert run_cli(["figures", "--id", "9"]) == 2
        assert "id" in capsys.readouterr().err


# Tokens that only argparse reads: help, abbreviated flags, values starting
# with "-", the end-of-options marker, and two plain oddities.
FOREIGN = ["-h", "--rh=1/2", "--rh", "-1", "-", "--", "", "x y"]


@st.composite
def command_lines(draw):
    """A command and its own flags and ``--config``, each as a ``--flag value``
    pair or one ``--flag=value`` token, with up to two tokens (a flag, a value
    or one of `FOREIGN`) put in anywhere."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    own = ["--" + key.replace("_", "-") for key, commands, *_ in _FLAGS if command in commands]
    flag = st.sampled_from([*own, "--config"])
    value = st.sampled_from(["1/2", "30", "unbounded", "json", "out.csv"]) | st.text(max_size=3)
    # after "=", empty values, values starting with "-" and values holding "="
    joined = value | st.sampled_from(["", "-1", "-", "--", "--x", "a=b", "="])
    pair = st.tuples(flag, value) | st.builds(lambda f, v: (f"{f}={v}",), flag, joined)
    argv = [command, *(t for p in draw(st.lists(pair, max_size=4)) for t in p)]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(1, len(argv))), draw(flag | value | st.sampled_from(FOREIGN)))
    return argv


class TestFlagReader:
    """`parse_config` reads ``--flag value`` and ``--flag=value`` itself; argparse is the reference."""

    @settings(max_examples=300, deadline=None)
    @given(argv=command_lines())
    def test_reader_returns_what_argparse_returns(self, argv):
        args = _read_pairs(argv)
        if args is not None:
            assert args == vars(build_parser().parse_args(argv))

    def test_reader_takes_plain_pairs_and_the_last_repeat(self):
        argv = ["hump", "--rho", "1/2", "--r", "30", "--r", "40", "--config", "x y"]
        assert _read_pairs(argv) == {
            "command": "hump", "rho": "1/2", "r": "40", "n_max": None,
            "out": None, "format": None, "config": "x y",
        }

    def test_reader_splits_a_token_at_its_first_equals(self):
        argv = ["hump", "--rho=1/2", "--r", "30", "--out=a=b", "--n-max=", "--format=-"]
        assert _read_pairs(argv) == {
            "command": "hump", "rho": "1/2", "r": "30", "n_max": "",
            "out": "a=b", "format": "-", "config": None,
        }

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["evl", "--rho", "1"], ["hump", "--help"], ["hump", "--rh=1/2"],
        ["hump", "--rh", "1/2"], ["hump", "--rho"], ["hump", "--trials", "5"],
        ["hump", "--r_values", "5"], ["eval", "--n", "-1"], ["eval", "--out", "-"],
        ["eval", "--", "--n", "1"], ["eval", "--out=--"],
    ])
    def test_reader_leaves_every_other_argv_to_argparse(self, argv):
        assert _read_pairs(argv) is None

    def test_argparse_syntax_runs_as_the_plain_form(self, capsys):
        assert main(["hump", "--rho", "1/2", "--r", "30"]) == 0
        plain = capsys.readouterr()
        for argv in (["hump", "--rho=1/2", "--r=30"], ["hump", "--rh", "1/2", "--r", "30"]):
            assert main(argv) == 0
            assert capsys.readouterr() == plain
        assert plain.out.endswith("hump onset: 58\n")


class TestCommands:
    def test_trajectory_writes_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run_cli(
            ["trajectory", "--rho", "1", "--r", "unbounded", "--n-max", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,variety_exact")
        assert lines[4] == (
            "3,8/1,8.00000000000,3/2,1.50000000000,8.00000000000,developing,false,false"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trajectory_streams_its_rows(self, tmp_path, fmt):
        # each row is written as the walk yields its point, so the traced peak
        # stays far below the output (515 kB of CSV), which a table held whole
        # would exceed several times over; a first, untraced run pays for the
        # imports and fills the interpreter's free lists
        import tracemalloc

        out = tmp_path / f"traj.{fmt}"
        args = ["trajectory", "--rho", "1/2", "--r", "30", "--n-max", "1200", "--format", fmt]
        assert run_cli([*args, "--out", str(out)]) == 0
        tracemalloc.start()
        try:
            assert run_cli([*args, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**17 < out.stat().st_size / 3

    def test_trajectory_n_max_zero(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run_cli(["trajectory", "--rho", "1", "--n-max", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "1/1"

    def test_eval_json(self, tmp_path):
        out = tmp_path / "point.json"
        code = run_cli(
            ["eval", "--rho", "0.5", "--r", "30", "--n", "40", "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["params"] == {"rho": "1/2", "r": "30", "backend": "exact"}
        assert payload["points"][0]["n"] == 40

    def test_validate_ok(self, tmp_path, capsys):
        out = tmp_path / "validate.csv"
        code = run_cli(
            ["validate", "--rho", "0.5", "--r", "20", "--n-max", "60", "--out", str(out)]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out
        assert out.read_text().count("true") == 61

    def test_validate_keeps_rows_not_records(self, tmp_path):
        # each check, exact fractions included, is dropped once its row is
        # rendered; held whole, the 1001 checks below peak near 1.2 MiB
        import tracemalloc
        from collections.abc import Iterator

        from capmodel import core

        assert isinstance(core._cross_checks(3, "1/2", 2, 1e-9), Iterator)
        args = ["validate", "--rho", "1/2", "--r", "250", "--n-max", "1000",
                "--out", str(tmp_path / "validate.csv")]
        tracemalloc.start()
        try:
            assert run_cli(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2**20

    def test_validate_walks_each_backend_once(self, tmp_path, monkeypatch):
        from capmodel import core

        log_sums, opened, drawn = [], [], []
        log_window_sum = core._log_window_sum

        def counting_sum(*args):
            log_sums.append(args)
            return log_window_sum(*args)

        def counting_stream(backend, terms):
            def stream(*args):
                opened.append(backend)
                return (drawn.append(backend) or term for term in terms(*args))

            return stream

        monkeypatch.setattr(core, "_log_window_sum", counting_sum)
        monkeypatch.setattr(core, "_exact_terms", counting_stream("exact", core._exact_terms))
        monkeypatch.setattr(core, "_log_terms", counting_stream("logfloat", core._log_terms))
        code = run_cli(["validate", "--rho", "3/4", "--r", "200", "--n-max", "600",
                        "--out", str(tmp_path / "validate.csv")])
        assert code == 0
        assert len(log_sums) == 600 - 200  # one per binding n, and none past n-max
        assert sorted(opened) == ["exact", "logfloat"]
        # each stream yields every term of n = 0..600 once
        assert drawn.count("exact") == drawn.count("logfloat") == 601

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "args, renderer, per_row",
        [
            (["figures", "--id", "3", "--n-max", "40"], "_point_cells", 1),
            (["trajectory", "--rho", "3/4", "--r", "12", "--n-max", "60", "--backend", "both"],
             "_point_cells", 1),
            (["sweep", "--rho", "1/2", "--r-values", "9,4", "--n-max", "30"], "_point_cells", 1),
            (["oracle", "--n", "8", "--rho", "1/2", "--trials", "50"], "format_sig12", 3),
            (["validate", "--rho", "1/2", "--r", "10", "--n-max", "30"], "format_sig12", 2),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else None,
    )
    def test_each_written_cell_is_rendered_once(
        self, tmp_path, monkeypatch, args, renderer, per_row, fmt
    ):
        # a command builds its table and payload before `run` picks the format,
        # so both must stay lazy: a row is rendered only as it is written
        from capmodel import serialize

        calls, render = [], getattr(serialize, renderer)

        def counting(*cells):
            calls.append(cells)
            return render(*cells)

        def rows(value, in_list=False):
            # the objects in a list that hold no list or object: the JSON rows
            if isinstance(value, list):
                return sum(rows(item, True) for item in value)
            if not isinstance(value, dict):
                return 0
            inner = [item for item in value.values() if isinstance(item, (dict, list))]
            return sum(map(rows, inner)) if inner else int(in_list)

        monkeypatch.setattr(serialize, renderer, counting)
        out = tmp_path / f"out.{fmt}"
        assert run_cli([*args, "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        written = len(text.splitlines()) - 1 if fmt == "csv" else rows(json.loads(text))
        # validate's payload also renders its one "tol" scalar, which CSV leaves out
        assert len(calls) == per_row * written + (args[0] == "validate")

    def test_validate_fail_exit_one(self):
        # an absurd tolerance makes genuine rounding look like a failure
        code = run_cli(["validate", "--rho", "0.5", "--r", "20", "--n-max", "60",
                        "--tol", "1e-300"])
        assert code == 1

    def test_hump_prints_onset(self, capsys):
        assert run_cli(["hump", "--rho", "0.5", "--r", "1"]) == 0
        assert "hump onset: 2" in capsys.readouterr().out

    def test_hump_writes_its_table_to_stdout_by_default(self, capsys):
        assert run_cli(["hump", "--rho", "1/2", "--r", "30"]) == 0
        table, summary = capsys.readouterr().out.split("}\n")
        assert json.loads(table + "}") == {"rho": "1/2", "r": 30, "n_max": 500, "onset": 58}
        assert summary == "hump onset: 58\n"

    def test_hump_bound_below_the_range_names_the_flag(self, capsys):
        assert run_cli(["hump", "--rho", "1/2", "--r", "3", "--n-max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n-max: must be at least r + 1 = 4, got 2\n"

    def test_hump_none_within_bound(self, capsys):
        assert run_cli(["hump", "--rho", "1", "--r", "4", "--n-max", "100"]) == 0
        assert "none" in capsys.readouterr().out

    def test_oracle_ok_and_file(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = run_cli(
            ["oracle", "--n", "10", "--rho", "0.5", "--trials", "200", "--seed", "42",
             "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "stat,expected,empirical,zscore"
        assert "variety" in text

    def test_oracle_per_subset_bound_is_usage_error(self):
        assert run_cli(["oracle", "--n", "25", "--rho", "0.5", "--mode", "per-subset"]) == 2

    def test_oracle_impossible_threshold_exits_one(self):
        code = run_cli(
            ["oracle", "--n", "10", "--rho", "0.5", "--trials", "200", "--seed", "42",
             "--z-max", "0.0001"]
        )
        assert code == 1

    def test_figures_written(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli(["figures", "--id", "2", "--out", str(out)]) == 0
        assert out.exists()
        text = out.read_text()
        assert "hump_onset" in text
        assert text.splitlines()[0] == "figure,series,n,variety_exact,variety_float," \
            "avg_length_exact,avg_length_float,marker"

    def test_sweep_reports_ordering(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--rho", "0.5", "--r-values", "1,2", "--n-max", "12", "--out", str(out)]
        )
        assert code == 0
        assert "nondecreasing in r: true" in capsys.readouterr().out
        assert out.read_text().splitlines()[0].startswith("r,n,")

    def test_unwritable_path_is_io_error(self, capsys):
        code = run_cli(
            ["trajectory", "--rho", "1", "--n-max", "2", "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 3
        assert "I/O" in capsys.readouterr().err

    def test_logfloat_backend_trajectory(self, tmp_path):
        out = tmp_path / "log.csv"
        code = run_cli(
            ["trajectory", "--rho", "0.5", "--r", "4", "--n-max", "8",
             "--backend", "logfloat", "--out", str(out)]
        )
        assert code == 0
        first_row = out.read_text().splitlines()[1].split(",")
        assert first_row[1] == ""  # no exact column in a log-only run

    def test_backend_both_fills_both_column_families(self, tmp_path):
        out = tmp_path / "both.csv"
        code = run_cli(
            ["eval", "--rho", "0.5", "--r", "4", "--n", "12", "--backend", "both",
             "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert "/" in row[1] and row[2]

    def test_exact_values_past_the_int_digit_limit(self, tmp_path):
        # the numerator has about 4950 digits, past str()'s 4300-digit limit
        out = tmp_path / "big.csv"
        assert run_cli(["eval", "--rho", "999/1000", "--n", "1500", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            [row] = read_trajectory_csv(fh)
        assert row["variety_exact"] == Fraction(1999, 1000) ** 1500

    def test_streamed_trajectory_bytes_do_not_depend_on_the_int_digit_limit(self, tmp_path):
        # cells of up to about 1,935 digits, so at CPython's smallest limit
        # every streamed row goes through serialize._int_str's split path
        args = ["trajectory", "--rho", "9/10", "--r", "400", "--n-max", "1600", "--out"]
        assert run_cli([*args, str(tmp_path / "default.csv")]) == 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run_cli([*args, str(tmp_path / "limited.csv")]) == 0
        finally:
            sys.set_int_max_str_digits(limit)
        limited = (tmp_path / "limited.csv").read_bytes()
        assert limited == (tmp_path / "default.csv").read_bytes()
        assert max(map(len, limited.split(b","))) > 1900

    def test_subnormal_log_values_keep_their_digits(self, tmp_path):
        # variety is about 3.1e-316 here, a subnormal double with ~24 bits
        out = tmp_path / "subnormal.csv"
        args = ["eval", "--rho", "1/10", "--r", "400", "--n", "1008", "--backend", "logfloat"]
        assert run_cli([*args, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            [row] = csv.DictReader(fh)
        rho = Fraction(1, 10)
        for column, exact in (
            ("variety_float", cm.variety(1008, rho, 400)),
            ("delta_variety_float", cm.variety_delta(1008, rho, 400)),
        ):
            assert abs(Fraction(row[column]) / exact - 1) <= 1e-9, column

    def test_large_log_values_within_the_gate(self, tmp_path):
        # 1.5**10**6 prints as 1.81574844638e+176091, true ...641e+176091:
        # at |log_abs| ~ 4e5 a double log carries the 1e-9 gate, not 12 digits
        out = tmp_path / "large.csv"
        args = ["eval", "--rho", "1/2", "--n", "1000000", "--backend", "logfloat"]
        assert run_cli([*args, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            [row] = csv.DictReader(fh)
        ctx = decimal.Context(prec=40)
        exact = ctx.exp(ctx.multiply(10**6, ctx.ln(decimal.Decimal("1.5"))))
        assert abs(ctx.divide(decimal.Decimal(row["variety_float"]), exact) - 1) <= 1e-9


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--rho", "0.5", "--r", "30", "--n", "40", "--backend", "both"],
            ["trajectory", "--rho", "0.5", "--r", "6", "--n-max", "25"],
            ["sweep", "--rho", "0.5", "--r-values", "2,4", "--n-max", "15"],
            ["hump", "--rho", "0.5", "--r", "5", "--format", "json"],
            ["oracle", "--n", "8", "--rho", "0.5", "--trials", "100", "--seed", "7"],
            ["validate", "--rho", "0.5", "--r", "10", "--n-max", "40"],
            ["figures", "--id", "3", "--format", "json"],
        ],
        ids=lambda args: args[0],
    )
    def test_identical_bytes_across_runs(self, tmp_path, args):
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        assert run_cli([*args, "--out", str(out_a)]) == 0
        assert run_cli([*args, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
