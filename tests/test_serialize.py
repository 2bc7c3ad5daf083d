"""Formatting and round-trip guarantees of the CSV/JSON writers."""

import ast
import csv
import io
import json
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal, MAX_EMAX, MIN_EMIN
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        for value in (True, "8", None):
            with pytest.raises(TypeError, match="cannot format"):
                ser.format_sig12(value)

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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_logscalar_beyond_double_range_carries_into_the_exponent(self, sign):
        import math

        # log10 |value| is 2 ulps below 401: the mantissa 9.99999999999974 rounds
        # to 12 digits as 10.0000000000 and carries into the exponent, 400 -> 401;
        # 4 ulps below, the mantissa 9.99999999999948 does not carry
        text = "-" if sign < 0 else ""
        carried = LogScalar(sign, (401 - 2**-43) * math.log(10))
        assert ser.format_sig12(carried) == text + "1.00000000000e+401"
        kept = LogScalar(sign, (401 - 2**-42) * math.log(10))
        assert ser.format_sig12(kept) == text + "9.99999999999e+400"

    def test_zero_logscalar(self):
        assert ser.format_sig12(LogScalar.zero()) == "0.00000000000"


#: 12 significant digits, rounded half to even, at any exponent
_SIG12 = Context(prec=12, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)


class TestRenderingRoutes:
    """The double route (``dtoa``) and the rational route (one division)."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(1234567890125.0)  # a tie, rounded down to even
    @example(1234567890135.0)  # a tie, rounded up to even
    @example(1.25e-300)
    @example(5e-324)
    @example(-2.5e-320)
    @example(sys.float_info.min)
    @example(sys.float_info.max)
    @example(-0.0)
    def test_float_route_matches_exact_rendering(self, x):
        assert ser.format_sig12(x) == ser._format_fraction(Fraction(x))

    @given(
        st.one_of(st.integers(), st.integers(min_value=-(2**5000), max_value=2**5000)),
        st.one_of(st.integers(min_value=1), st.integers(min_value=1, max_value=2**5000)),
    )
    @example(2**4000 + 1, 3**2000)
    def test_fraction_route_matches_decimal(self, num, den):
        self._check(Fraction(num, den))

    @pytest.mark.parametrize("k", [-40, -5, -4, 0, 1, 11, 12, 15, 16, 17, 300])
    def test_at_and_just_below_powers_of_ten(self, k):
        power = Fraction(10) ** k
        for value in (
            power,
            power * (1 - Fraction(1, 10**12)),  # twelve nines: stays below
            power * (1 - Fraction(1, 10**13)),  # rounds up: the exponent steps
            power * (1 - Fraction(5, 10**13)),  # a tie, rounded up to the even power
            power * (1 - Fraction(15, 10**13)),  # a tie, rounded down to even ...998
            power * (1 - Fraction(1, 10**40)),
        ):
            self._check(value)
            self._check(-value)

    @staticmethod
    def _check(value):
        text = ser.format_sig12(value)
        if value == 0:
            assert text == "0.00000000000"
            return
        expected = _SIG12.divide(Decimal(value.numerator), Decimal(value.denominator))
        assert Decimal(text) == expected, (value, text)
        mantissa = text.partition("e")[0].lstrip("-").replace(".", "").lstrip("0")
        assert len(mantissa) >= 12 and mantissa[12:].strip("0") == ""


class TestFractionStrings:
    def test_always_carries_denominator(self):
        assert ser.fraction_str(Fraction(8)) == "8/1"
        assert ser.fraction_str(Fraction(3, 2)) == "3/2"

    def test_parse_round_trip(self):
        for value in (Fraction(8), Fraction(-5, 16), Fraction(10**40, 3**20)):
            assert ser.parse_fraction(ser.fraction_str(value)) == value
        # only what `fraction_str` writes: no zero or leading-zero parts, no -0, lowest terms
        bad = ("8", "3/2 ", "+3/2", "1.5/1", "0x3/2", "1/0", "0/0", "03/2", "2/4", "-0/5", "-0/1")
        for text in bad:
            with pytest.raises(cm.DomainError, match="not a canonical rational string"):
                ser.parse_fraction(text)
        # every short ratio: accepted exactly when `fraction_str` gives it back
        digits = [str(i) for i in range(10)] + [f"{i:02d}" for i in range(100)]
        for text in (f"{sign}{a}/{b}" for sign in ("", "-") for a in digits for b in digits):
            numerator, denominator = (int(part) for part in text.split("/"))
            if denominator and ser.fraction_str(Fraction(numerator, denominator)) == text:
                assert ser.parse_fraction(text) == Fraction(numerator, denominator)
            else:
                with pytest.raises(cm.DomainError):
                    ser.parse_fraction(text)

    @pytest.mark.parametrize("digits", [4299, 4300, 4301, 20000])
    def test_round_trip_past_the_digit_limit(self, digits):
        # 3**k has no trailing zeros, so the split must pad its lower halves
        numerator = 10 ** (digits - 1) + 7 * 10 ** (digits // 2) + 3**20
        for value in (Fraction(numerator, 7), Fraction(-numerator, 10**digits + 1)):
            text = ser.fraction_str(value)
            head, _, tail = text.partition("/")
            assert len(head.lstrip("-")) == digits
            assert (head[0] == "-") == (value < 0)
            assert ser.parse_fraction(text) == value
            assert text == f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def _csv_text(table):
    buffer = io.StringIO()
    ser.write_csv(table, buffer)
    return buffer.getvalue()


def _table(rows: list[dict]) -> ser.Table:
    return ser.Table(tuple(rows[0]), [tuple(row.values()) for row in rows])


def _dicts(table: ser.Table) -> list[dict]:
    return [dict(zip(table.columns, row, strict=True)) for row in table.rows]


def _csv_writer(rows, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(list(rows[0]))
    writer.writerows([["" if v is None else v for v in row.values()] for row in rows])


@pytest.mark.parametrize(
    "cell", ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "nul\0", "", ",", '"', " pad "]
)
@pytest.mark.parametrize("width", [1, 3])
def test_write_csv_matches_csv_writer(cell, width):
    # a cell that csv.writer writes as it is comes out in its bytes; one it
    # would quote or reject (no table emits one) raises ValueError
    columns = ["first", "second", "third"][:width]
    rows = [
        dict.fromkeys(columns, "x"),
        dict.fromkeys(columns, cell),
        {**dict.fromkeys(columns, 1), columns[0]: cell},
    ]
    buffer = io.StringIO()
    if any(char in cell for char in ',"\n\r\0') or cell == "" and width == 1:
        with pytest.raises(ValueError, match="would need quoting"):
            ser.write_csv(_table(rows), buffer)
    else:
        ser.write_csv(_table(rows), buffer)
        expected = io.StringIO()
        _csv_writer(rows, expected)
        assert buffer.getvalue() == expected.getvalue()


def _json_text(payload) -> str:
    buffer = io.StringIO()
    ser.write_json(payload, buffer)
    return buffer.getvalue()


def _streamed(value):
    """``value`` with every list given as an iterator, as the CLI's payloads give rows."""
    if isinstance(value, dict):
        return {key: _streamed(item) for key, item in value.items()}
    if isinstance(value, list):
        return (_streamed(item) for item in value)
    return value


_JSON_PAYLOADS = [
    {},
    [],
    {"empty_list": [], "empty_dict": {}, "nested": [[], {}, [[]], [{}]]},
    [{"n": 0, "cells": [None, True, False]}, {"n": -12, "cells": [{"deep": [1, [2, [3]]]}]}],
    {"ints": [0, -1, 2**64, -(10**40)], "nested": {"deeper": {"deepest": [[0], 1]}}},
    {"literals": [True, False, None], "as_text": ["true", "false", "null", "1", ""]},
    {'quote " slash \\ tab \t nl \n': ["\x00\x01\x1f\x7f", "back\\slash", "%s %d %%"]},
    {"naïve": ["über", "—", "日本", "\U0001d518", "\ud800"]},
    "just a string",
    None,
    [True, False, None, 0, "0"],
]

# the scalars a table emits: no float
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda items: st.lists(items, max_size=4) | st.dictionaries(st.text(), items, max_size=4),
    max_leaves=20,
)


@pytest.mark.parametrize("payload", _JSON_PAYLOADS)
def test_write_json_matches_json_dumps(payload):
    expected = json.dumps(payload, indent=2) + "\n"
    assert _json_text(payload) == expected
    assert _json_text(_streamed(payload)) == expected


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_write_json_matches_json_dumps_on_any_payload(payload):
    expected = json.dumps(payload, indent=2) + "\n"
    assert _json_text(payload) == expected
    assert _json_text(_streamed(payload)) == expected


@pytest.mark.parametrize(
    "payload", [1.5, [0.0], {"specials": [float("inf")]}, ser.Table(("x",), [(float("nan"),)])]
)
def test_write_json_rejects_a_float(payload):
    # no table emits a float cell: each is a 12-digit string from format_sig12
    with pytest.raises(TypeError, match="float"):
        _json_text(payload)


def test_write_json_renders_a_table_as_its_rows_as_objects():
    columns = ("n", "text", "flag", "empty", "50% off")
    rows = [(0, "a", True, None, "x"), (1, 'say "hi"\n', False, None, "%s")]
    payload = {"table": ser.Table(columns, iter(rows)), "empty": ser.Table(columns, iter([]))}
    expected = {"table": [dict(zip(columns, row)) for row in rows], "empty": []}
    assert _json_text(payload) == json.dumps(expected, indent=2) + "\n"
    with pytest.raises(TypeError):  # json.dumps would write the key as "1"
        _json_text({1: "one"})


_TRAJECTORY_HEADER = (
    "n,variety_exact,variety_float,avg_length_exact,avg_length_float,"
    "delta_variety_float,stage,constrained,hump"
)


class TestTrajectorySerialization:
    def test_golden_row(self):
        traj = cm.run_trajectory(ModelParams(1, None), n_max=3)
        rows = ser.trajectory_rows(traj.points)
        text = _csv_text(rows)
        lines = text.splitlines()
        assert lines[0] == _TRAJECTORY_HEADER
        assert lines[4] == (
            "3,8/1,8.00000000000,3/2,1.50000000000,8.00000000000,developing,false,false"
        )

    def test_n_zero_single_row(self):
        traj = cm.run_trajectory(ModelParams(1, None), n_max=0)
        rows = ser.trajectory_rows(traj.points)
        text = _csv_text(rows)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,1/1,")

    def test_csv_round_trip_recovers_exact_fields(self):
        traj = cm.run_trajectory(ModelParams("0.5", 4), n_max=14)
        rows = ser.trajectory_rows(traj.points)
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
        # a log table reads back with its exact cells empty
        logged = cm.run_trajectory(ModelParams("0.5", 4, LOGFLOAT), n_max=14)
        parsed = ser.read_trajectory_csv(io.StringIO(_csv_text(ser.trajectory_rows(logged.points))))
        assert {(row["variety_exact"], row["avg_length_exact"]) for row in parsed} == {(None, None)}
        assert [row["variety_float"] for row in parsed] == pytest.approx(
            [p.variety.to_float() for p in logged.points], rel=1e-11
        )

    def test_json_round_trip_recovers_exact_fields(self):
        traj = cm.run_trajectory(ModelParams("0.5", 4), n_max=9)
        rows = ser.trajectory_rows(traj.points)
        payload = ser.trajectory_json_payload(traj.params, rows, traj)
        buffer = io.StringIO()
        ser.write_json(payload, buffer)
        parsed = ser.read_trajectory_json(io.StringIO(buffer.getvalue()))
        assert parsed["params"]["rho"] == "1/2"
        assert parsed["hump_onset_at"] == traj.hump_onset_at
        assert [row["variety_exact"] for row in parsed["points"]] == [
            p.variety for p in traj.points
        ]
        # a log table reads back with its exact cells empty
        logged = cm.run_trajectory(ModelParams("0.5", 4, LOGFLOAT), n_max=9)
        buffer = io.StringIO()
        rows = ser.trajectory_rows(logged.points)
        ser.write_json(ser.trajectory_json_payload(logged.params, rows), buffer)
        parsed = ser.read_trajectory_json(io.StringIO(buffer.getvalue()))
        assert parsed["params"]["backend"] == LOGFLOAT
        assert {(row["variety_exact"], row["avg_length_exact"]) for row in parsed["points"]} == {
            (None, None)
        }
        assert [row["avg_length_float"] for row in parsed["points"]] == pytest.approx(
            [p.avg_length.to_float() for p in logged.points], rel=1e-11
        )

    def test_log_backend_leaves_exact_columns_empty(self):
        traj = cm.run_trajectory(ModelParams("0.5", 4, LOGFLOAT), n_max=6)
        assert _dicts(ser.trajectory_rows(traj.points))[0]["variety_exact"] is None
        text = _csv_text(ser.trajectory_rows(traj.points))
        assert text.splitlines()[1].split(",")[1] == ""

    def test_both_backends_zip_into_one_table(self):
        exact = cm.run_trajectory(ModelParams("0.5", 4), n_max=6)
        logged = cm.run_trajectory(ModelParams("0.5", 4, LOGFLOAT), n_max=6)
        rows = _dicts(ser.trajectory_rows(exact.points, logged.points))
        assert rows[3]["variety_exact"] == ser.fraction_str(exact.points[3].variety)
        assert rows[3]["variety_float"] == ser.format_sig12(logged.points[3].variety)

    def test_deterministic_bytes(self):
        traj = cm.run_trajectory(ModelParams("0.5", 4), n_max=10)
        # a table's rows are read once, so each text renders a table of its own
        first, second = ser.trajectory_rows(traj.points), ser.trajectory_rows(traj.points)
        assert _csv_text(first) == _csv_text(second)


class TestFigureSerialization:
    def test_rows_carry_markers(self):
        fig = cm.figure_dataset(2, n_max=70)
        rows = _dicts(ser.figure_rows(fig))
        marked = {row["marker"] for row in rows if row["marker"]}
        assert marked == {"constrained_from", "hump_onset"}
        onset_rows = [row for row in rows if row["marker"] == "hump_onset"]
        assert len(onset_rows) == 1
        assert onset_rows[0]["series"] == "r=30"
        assert onset_rows[0]["n"] == cm.find_hump_onset(30, Fraction(1, 2), 70)
        # with no bounded series, a marker goes on the first series
        only = cm.FigureData(2, fig.rho, fig.series[:1], {"constrained_from": 3})
        rows = _dicts(ser.figure_rows(only))
        marked = [(row["series"], row["n"]) for row in rows if row["marker"]]
        assert marked == [("unconstrained", 3)]

    def test_fig3_markers_attach_to_their_series(self):
        fig = cm.figure_dataset(3, n_max=70)
        rows = _dicts(ser.figure_rows(fig))
        for row in rows:
            if row["marker"].startswith("hump_onset_r="):
                assert row["series"] == row["marker"].removeprefix("hump_onset_")

    def test_json_payload_mirrors_markers(self):
        fig = cm.figure_dataset(1, n_max=10)
        payload = ser.figure_json_payload(fig)
        assert payload["markers"] == {"constrained_from": 6}
        assert _dicts(payload["series"][0]["points"])[3]["variety_exact"] == "8/1"


def _points(backend):
    return cm.run_trajectory(ModelParams("1/2", 3, backend), n_max=6).points


#: table -> (a function building its rows, the CSV header the README lists)
_TABLES = {
    "trajectory-exact": (
        lambda: ser.trajectory_rows(_points(cm.EXACT)), _TRAJECTORY_HEADER
    ),
    "trajectory-log": (
        lambda: ser.trajectory_rows(_points(LOGFLOAT)), _TRAJECTORY_HEADER
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
    "hump": (lambda: _table([ser.hump_payload(Fraction(1, 2), 3, 20, None)]), "rho,r,n_max,onset"),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_rows_share_one_key_tuple_and_the_readme_header(table):
    build, header = _TABLES[table]
    rows = _dicts(build())
    assert len(rows) > 1 or table == "hump"
    assert {tuple(row) for row in rows} == {tuple(header.split(","))}
    assert _csv_text(build()).splitlines()[0] == header
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"\n{header}\n" in readme


def test_serialize_imports_no_module_that_decides_a_finding():
    # serialize renders what it is handed, so of the package it needs only the
    # value types and the error; an import under TYPE_CHECKING only annotates
    tree = ast.parse(Path(ser.__file__).read_text(encoding="utf-8"))
    annotating = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "TYPE_CHECKING"
        for node in ast.walk(stmt)
    }
    imported = {
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and id(node) not in annotating
    }
    package = {name for name in imported if name.startswith((".", "capmodel"))}
    assert package <= {".core", ".errors", ".scalars"}


def test_no_module_but_core_imports_the_hump_test():
    # core alone decides the hump: hump_condition, classify_stage and the
    # bisected onset all call _hump there, so patching core._hump sees every test
    importers = {
        path.name
        for path in Path(ser.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and any(alias.name == "_hump" for alias in node.names)
    }
    assert importers <= {"core.py"}


def test_no_module_but_core_words_the_membership_rule():
    # backend, mode, figure id and every CLI choice go through core._check_choice
    wording = {
        path.name
        for path in Path(ser.__file__).parent.glob("*.py")
        if "must be one of" in path.read_text(encoding="utf-8")
    }
    assert wording == {"core.py"}
