"""Structured text output: canonical rationals, 12-digit decimals, CSV/JSON.

Exact columns carry canonical rational strings ``p/q`` and round-trip
losslessly.  Float columns carry decimal renderings with exactly 12
significant digits (positional for exponents in [-4, 16), scientific
otherwise), computed with integer arithmetic so identical inputs always
produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import IO

from .core import EXACT, Range, Stage, UNBOUNDED
from .figures import FigureData
from .scalars import LogScalar

_LN10 = math.log(10.0)
_LOG10_2 = math.log10(2.0)
_SIG = 12
_CANONICAL = re.compile(r"-?[0-9]+/[0-9]+")


def fraction_str(value: Fraction) -> str:
    """Canonical rational string, always with an explicit denominator.

    Digits go through `decimal`, which converts integers of any length;
    ``str()`` refuses those past the interpreter's 4300-digit limit.
    """
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def parse_fraction(text: str) -> Fraction:
    """Inverse of `fraction_str`, for integers of any length."""
    if not _CANONICAL.fullmatch(text):
        raise ValueError(f"not a canonical rational string: {text!r}")
    numerator, denominator = text.split("/")
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator)))


def range_str(r: Range) -> str:
    return "unbounded" if r is UNBOUNDED else str(r)


def _pow10_compare(num: int, den: int, e: int) -> int:
    """Sign of num/den - 10**e for positive num, den."""
    if e >= 0:
        lhs, rhs = num, den * 10**e
    else:
        lhs, rhs = num * 10**-e, den
    return (lhs > rhs) - (lhs < rhs)


def _floor_log10(num: int, den: int) -> int:
    # num/den lies within a factor 2 of 2**(bit lengths' difference)
    e = math.floor((num.bit_length() - den.bit_length()) * _LOG10_2)
    while _pow10_compare(num, den, e) < 0:
        e -= 1
    while _pow10_compare(num, den, e + 1) >= 0:
        e += 1
    return e


def _round_digits(num: int, den: int, e: int) -> tuple[int, int]:
    """First 12 significant digits of num/den (half-even), with exponent fixup."""
    shift = _SIG - 1 - e
    if shift >= 0:
        a, b = num * 10**shift, den
    else:
        a, b = num, den * 10**-shift
    q, rem = divmod(a, b)
    if 2 * rem > b or (2 * rem == b and q % 2 == 1):
        q += 1
    if q >= 10**_SIG:
        q //= 10
        e += 1
    return q, e


def _place_digits(digits: str, e: int) -> str:
    if -4 <= e < 16:
        if e >= _SIG - 1:
            return digits + "0" * (e - _SIG + 1)
        if e >= 0:
            return digits[: e + 1] + "." + digits[e + 1 :]
        return "0." + "0" * (-e - 1) + digits
    return digits[0] + "." + digits[1:] + f"e{e:+d}"


def _format_fraction(value: Fraction) -> str:
    if value == 0:
        return "0.00000000000"
    sign = "-" if value < 0 else ""
    num, den = abs(value).numerator, abs(value).denominator
    e = _floor_log10(num, den)
    q, e = _round_digits(num, den, e)
    return sign + _place_digits(str(q), e)


def _format_logscalar(value: LogScalar) -> str:
    if value.sign == 0:
        return "0.00000000000"
    as_float = value.to_float()
    if sys.float_info.min <= abs(as_float) < math.inf:
        return _format_fraction(Fraction(as_float))
    # beyond the normal doubles (subnormals carry fewer than 53 bits):
    # digits straight from the log-domain magnitude
    sign = "-" if value.sign < 0 else ""
    l10 = value.log_abs / _LN10
    e = math.floor(l10)
    mantissa = 10.0 ** (l10 - e)
    q = round(mantissa * 10 ** (_SIG - 1))
    if q >= 10**_SIG:
        q //= 10
        e += 1
    if q < 10 ** (_SIG - 1):
        q = 10 ** (_SIG - 1)
    return sign + _place_digits(str(q), e)


def format_sig12(value) -> str:
    """Decimal string with exactly 12 significant digits."""
    if isinstance(value, LogScalar):
        return _format_logscalar(value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
        return _format_fraction(Fraction(value))
    raise TypeError(f"cannot format {type(value).__name__}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(rows: list[dict], stream: IO[str]) -> None:
    """Write a table of row dicts; the keys of the first row are the header."""
    columns = list(rows[0])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[col]) for col in columns])


def write_json(payload, stream: IO[str]) -> None:
    json.dump(payload, stream, indent=2)
    stream.write("\n")


# -- trajectories ----------------------------------------------------------


def _point_cells(exact, point) -> dict:
    # exact cells render ``exact`` (empty when it is None), float cells ``point``
    return {
        "n": point.n,
        "variety_exact": None if exact is None else fraction_str(exact.variety),
        "variety_float": format_sig12(point.variety),
        "avg_length_exact": None if exact is None else fraction_str(exact.avg_length),
        "avg_length_float": format_sig12(point.avg_length),
    }


def trajectory_rows(points_exact=None, points_log=None) -> list[dict]:
    """Row dicts for the trajectory table.

    Exact columns come from exact-backend points (empty when absent); float
    columns come from log-backend points when given, else they render the
    exact values.  When both are given, they must cover the same n axis.
    """
    if points_exact is None and points_log is None:
        raise ValueError("need at least one sequence of points")
    if points_exact is not None and points_log is not None:
        if [p.n for p in points_exact] != [p.n for p in points_log]:
            raise ValueError("exact and log point sequences must cover the same n values")
    primary = points_exact if points_exact is not None else points_log
    float_source = points_log if points_log is not None else points_exact
    rows = []
    for base, fp in zip(primary, float_source):
        exact = base if points_exact is not None else None
        rows.append(
            {
                **_point_cells(exact, fp),
                "delta_variety_float": format_sig12(fp.delta_variety),
                "stage": base.stage.value,
                "constrained": base.constrained,
                "hump": base.stage is Stage.DEVELOPED,
            }
        )
    return rows


def trajectory_json_payload(params, rows: list[dict], trajectory=None) -> dict:
    payload = {
        "params": {
            "rho": fraction_str(params.rho),
            "r": range_str(params.r),
            "backend": params.backend,
        },
        "points": rows,
    }
    if trajectory is not None:
        payload["transition_constrained_at"] = trajectory.transition_constrained_at
        payload["hump_onset_at"] = trajectory.hump_onset_at
        payload["non_monotone_flag"] = trajectory.non_monotone_flag
    return payload


def parse_trajectory_row(row: dict) -> dict:
    """Typed view of one serialized trajectory row (CSV cells or JSON)."""
    def frac(value):
        if value in (None, ""):
            return None
        return parse_fraction(value) if isinstance(value, str) else value

    def boolean(value):
        return value if isinstance(value, bool) else value == "true"

    return {
        "n": int(row["n"]),
        "variety_exact": frac(row["variety_exact"]),
        "variety_float": float(row["variety_float"]),
        "avg_length_exact": frac(row["avg_length_exact"]),
        "avg_length_float": float(row["avg_length_float"]),
        "delta_variety_float": float(row["delta_variety_float"]),
        "stage": row["stage"],
        "constrained": boolean(row["constrained"]),
        "hump": boolean(row["hump"]),
    }


def read_trajectory_csv(stream: IO[str]) -> list[dict]:
    return [parse_trajectory_row(row) for row in csv.DictReader(stream)]


def read_trajectory_json(stream: IO[str]) -> dict:
    payload = json.load(stream)
    payload["points"] = [parse_trajectory_row(row) for row in payload["points"]]
    return payload


# -- sweeps ----------------------------------------------------------------


def _rows_for_trajectory(traj) -> list[dict]:
    if traj.params.backend == EXACT:
        return trajectory_rows(points_exact=traj.points)
    return trajectory_rows(points_log=traj.points)


def sweep_rows(trajectories) -> list[dict]:
    rows = []
    for traj in trajectories:
        for row in _rows_for_trajectory(traj):
            rows.append({"r": range_str(traj.params.r), **row})
    return rows


def sweep_json_payload(rho: Fraction, trajectories) -> dict:
    return {
        "rho": fraction_str(rho),
        "trajectories": [
            trajectory_json_payload(traj.params, _rows_for_trajectory(traj), traj)
            for traj in trajectories
        ],
    }


# -- figures ---------------------------------------------------------------


def _marker_target(name: str, fig: FigureData) -> str:
    if "r=" in name:
        wanted = "r=" + name.rsplit("r=", 1)[1]
        for series in fig.series:
            if series.name == wanted:
                return series.name
    for series in fig.series:
        if series.r is not UNBOUNDED:
            return series.name
    return fig.series[0].name


def figure_rows(fig: FigureData) -> list[dict]:
    marker_at: dict[tuple[str, int], list[str]] = {}
    for name, n in fig.markers.items():
        marker_at.setdefault((_marker_target(name, fig), n), []).append(name)
    return [
        {
            "figure": fig.figure_id,
            "series": series.name,
            **_point_cells(point, point),
            "marker": ";".join(marker_at.get((series.name, point.n), [])),
        }
        for series in fig.series
        for point in series.points
    ]


def figure_json_payload(fig: FigureData) -> dict:
    return {
        "figure": fig.figure_id,
        "rho": fraction_str(fig.rho),
        "markers": dict(fig.markers),
        "series": [
            {
                "name": series.name,
                "r": range_str(series.r),
                "points": [_point_cells(point, point) for point in series.points],
            }
            for series in fig.series
        ],
    }


# -- oracle reports --------------------------------------------------------


def oracle_rows(report) -> list[dict]:
    rows = [
        {
            "stat": f"length_{s}",
            "expected": format_sig12(report.per_length_expected[s]),
            "empirical": format_sig12(report.per_length_empirical[s]),
            "zscore": format_sig12(report.per_length_zscores[s]),
        }
        for s in range(report.n + 1)
    ]
    rows.append(
        {
            "stat": "variety",
            "expected": format_sig12(report.expected_variety),
            "empirical": format_sig12(report.empirical_variety),
            "zscore": format_sig12(report.variety_zscore),
        }
    )
    rows.append(
        {
            "stat": "avg_length",
            "expected": format_sig12(report.expected_avg_length),
            "empirical": format_sig12(report.empirical_avg_length),
            "zscore": format_sig12(report.avg_length_zscore),
        }
    )
    return rows


def oracle_json_payload(report) -> dict:
    return {
        "n": report.n,
        "rho": fraction_str(report.rho),
        "r": range_str(report.r),
        "mode": report.mode,
        "trials": report.trials,
        "base_seed": report.base_seed,
        "stats": oracle_rows(report),
    }


# -- cross-backend validation ----------------------------------------------


def validate_rows(checks) -> list[dict]:
    return [
        {
            "n": check.n,
            "r": range_str(check.r),
            "rho": fraction_str(check.rho),
            "variety_rel_dev": format_sig12(check.variety_rel_dev),
            "avg_length_rel_dev": format_sig12(check.avg_length_rel_dev),
            "ok": check.ok,
        }
        for check in checks
    ]


def validate_json_payload(checks, tol: float) -> dict:
    return {
        "tol": format_sig12(tol),
        "checks": validate_rows(checks),
        "all_ok": all(check.ok for check in checks),
    }


# -- hump ------------------------------------------------------------------


def hump_payload(rho: Fraction, r: int, n_max: int, onset: int | None) -> dict:
    """The hump table's one row: CSV writes it as a table, JSON as an object."""
    return {"rho": fraction_str(rho), "r": r, "n_max": n_max, "onset": onset}
