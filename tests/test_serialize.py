"""Formatting and round-trip guarantees of the CSV/JSON writers."""

import io
from fractions import Fraction
from pathlib import Path

import pytest

import capmodel as cm
from capmodel import LOGFLOAT, ModelParams
from capmodel.scalars import LogScalar
from capmodel import serialize as ser


class TestFormatSig12:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(8), "8.00000000000"),
            (Fraction(3, 2), "1.50000000000"),
            (Fraction(0), "0.00000000000"),
            (Fraction(1, 2), "0.500000000000"),
            (Fraction(1, 3), "0.333333333333"),
            (Fraction(-5, 16), "-0.312500000000"),
            (Fraction(2**50), "1125899906840000"),
            (Fraction(10**16), "1.00000000000e+16"),
            (Fraction(1, 10**7), "1.00000000000e-7"),
            (Fraction(999999999999999, 1), "1000000000000000"),
        ],
    )
    def test_fractions(self, value, expected):
        assert ser.format_sig12(value) == expected

    def test_floats_and_ints(self):
        assert ser.format_sig12(8.0) == "8.00000000000"
        assert ser.format_sig12(13) == "13.0000000000"
        assert ser.format_sig12(1.5e-13) == "1.50000000000e-13"

    def test_logscalar_within_double_range(self):
        assert ser.format_sig12(LogScalar.from_float(8.0)) == "8.00000000000"

    def test_logscalar_beyond_double_range(self):
        import math

        for log10_target in (2000.0, -2000.0):
            value = LogScalar.from_log(log10_target * math.log(10))
            text = ser.format_sig12(value)
            mantissa, _, exponent = text.partition("e")
            assert mantissa and exponent, text
            assert len(mantissa.replace(".", "")) == 12
            # rendering is faithful to the log-domain value it was given
            recovered = math.log10(float(mantissa)) + int(exponent)
            assert recovered == pytest.approx(value.log_abs / math.log(10), abs=1e-9)

    def test_zero_logscalar(self):
        assert ser.format_sig12(LogScalar.zero()) == "0.00000000000"


class TestFractionStrings:
    def test_always_carries_denominator(self):
        assert ser.fraction_str(Fraction(8)) == "8/1"
        assert ser.fraction_str(Fraction(3, 2)) == "3/2"

    def test_parse_round_trip(self):
        for value in (Fraction(8), Fraction(-5, 16), Fraction(10**40, 3**20)):
            assert ser.parse_fraction(ser.fraction_str(value)) == value


def _csv_text(rows):
    buffer = io.StringIO()
    ser.write_csv(rows, buffer)
    return buffer.getvalue()


_TRAJECTORY_HEADER = (
    "n,variety_exact,variety_float,avg_length_exact,avg_length_float,"
    "delta_variety_float,stage,constrained,hump"
)


class TestTrajectorySerialization:
    def test_golden_row(self):
        traj = cm.run_trajectory(ModelParams(1, None), n_max=3)
        rows = ser.trajectory_rows(points_exact=traj.points)
        text = _csv_text(rows)
        lines = text.splitlines()
        assert lines[0] == _TRAJECTORY_HEADER
        assert lines[4] == (
            "3,8/1,8.00000000000,3/2,1.50000000000,8.00000000000,developing,false,false"
        )

    def test_n_zero_single_row(self):
        traj = cm.run_trajectory(ModelParams(1, None), n_max=0)
        rows = ser.trajectory_rows(points_exact=traj.points)
        text = _csv_text(rows)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,1/1,")

    def test_csv_round_trip_recovers_exact_fields(self):
        traj = cm.run_trajectory(ModelParams("0.5", 4), n_max=14)
        rows = ser.trajectory_rows(points_exact=traj.points)
        text = _csv_text(rows)
        parsed = ser.read_trajectory_csv(io.StringIO(text))
        assert [row["variety_exact"] for row in parsed] == [p.variety for p in traj.points]
        assert [row["avg_length_exact"] for row in parsed] == [
            p.avg_length for p in traj.points
        ]
        assert [row["stage"] for row in parsed] == [p.stage.value for p in traj.points]
        assert [row["hump"] for row in parsed] == [
            p.stage is cm.Stage.DEVELOPED for p in traj.points
        ]

    def test_json_round_trip_recovers_exact_fields(self):
        traj = cm.run_trajectory(ModelParams("0.5", 4), n_max=9)
        rows = ser.trajectory_rows(points_exact=traj.points)
        payload = ser.trajectory_json_payload(traj.params, rows, traj)
        buffer = io.StringIO()
        ser.write_json(payload, buffer)
        parsed = ser.read_trajectory_json(io.StringIO(buffer.getvalue()))
        assert parsed["params"]["rho"] == "1/2"
        assert parsed["hump_onset_at"] == traj.hump_onset_at
        assert [row["variety_exact"] for row in parsed["points"]] == [
            p.variety for p in traj.points
        ]

    def test_log_backend_leaves_exact_columns_empty(self):
        traj = cm.run_trajectory(ModelParams("0.5", 4, LOGFLOAT), n_max=6)
        rows = ser.trajectory_rows(points_log=traj.points)
        assert rows[0]["variety_exact"] is None
        text = _csv_text(rows)
        assert text.splitlines()[1].split(",")[1] == ""

    def test_both_backends_zip_into_one_table(self):
        exact = cm.run_trajectory(ModelParams("0.5", 4), n_max=6)
        logged = cm.run_trajectory(ModelParams("0.5", 4, LOGFLOAT), n_max=6)
        rows = ser.trajectory_rows(points_exact=exact.points, points_log=logged.points)
        assert rows[3]["variety_exact"] == ser.fraction_str(exact.points[3].variety)
        assert rows[3]["variety_float"] == ser.format_sig12(logged.points[3].variety)

    def test_deterministic_bytes(self):
        traj = cm.run_trajectory(ModelParams("0.5", 4), n_max=10)
        rows = ser.trajectory_rows(points_exact=traj.points)
        assert _csv_text(rows) == _csv_text(rows)


class TestFigureSerialization:
    def test_rows_carry_markers(self):
        fig = cm.figure_dataset(2, n_max=70)
        rows = ser.figure_rows(fig)
        marked = {row["marker"] for row in rows if row["marker"]}
        assert marked == {"constrained_from", "hump_onset"}
        onset_rows = [row for row in rows if row["marker"] == "hump_onset"]
        assert len(onset_rows) == 1
        assert onset_rows[0]["series"] == "r=30"
        assert onset_rows[0]["n"] == cm.find_hump_onset(30, Fraction(1, 2), 70)

    def test_fig3_markers_attach_to_their_series(self):
        fig = cm.figure_dataset(3, n_max=70)
        rows = ser.figure_rows(fig)
        for row in rows:
            if row["marker"].startswith("hump_onset_r="):
                assert row["series"] == row["marker"].removeprefix("hump_onset_")

    def test_json_payload_mirrors_markers(self):
        fig = cm.figure_dataset(1, n_max=10)
        payload = ser.figure_json_payload(fig)
        assert payload["markers"] == {"constrained_from": 6}
        assert payload["series"][0]["points"][3]["variety_exact"] == "8/1"


def _points(backend):
    return cm.run_trajectory(ModelParams("1/2", 3, backend), n_max=6).points


#: table -> (a function building its rows, the CSV header the README lists)
_TABLES = {
    "trajectory-exact": (
        lambda: ser.trajectory_rows(points_exact=_points(cm.EXACT)), _TRAJECTORY_HEADER
    ),
    "trajectory-log": (
        lambda: ser.trajectory_rows(points_log=_points(LOGFLOAT)), _TRAJECTORY_HEADER
    ),
    "trajectory-both": (
        lambda: ser.trajectory_rows(_points(cm.EXACT), _points(LOGFLOAT)), _TRAJECTORY_HEADER
    ),
    "sweep": (
        lambda: ser.sweep_rows(cm.sweep_range(Fraction(1, 2), [2, None], n_max=6)),
        "r," + _TRAJECTORY_HEADER,
    ),
    "figure": (
        lambda: ser.figure_rows(cm.figure_dataset(2, n_max=40)),
        "figure,series,n,variety_exact,variety_float,avg_length_exact,avg_length_float,marker",
    ),
    "oracle": (
        lambda: ser.oracle_rows(cm.validate_expectations(4, "1/2", 2, trials=30)),
        "stat,expected,empirical,zscore",
    ),
    "validate": (
        lambda: ser.validate_rows([cm.cross_validate(n, "1/2", 2) for n in range(5)]),
        "n,r,rho,variety_rel_dev,avg_length_rel_dev,ok",
    ),
    "hump": (lambda: [ser.hump_payload(Fraction(1, 2), 3, 20, None)], "rho,r,n_max,onset"),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_rows_share_one_key_tuple_and_the_readme_header(table):
    build, header = _TABLES[table]
    rows = build()
    assert len(rows) > 1 or table == "hump"
    assert {tuple(row) for row in rows} == {tuple(header.split(","))}
    assert _csv_text(rows).splitlines()[0] == header
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"\n{header}\n" in readme
