"""Structured text output: canonical rationals, 12-digit decimals, CSV/JSON.

Exact columns carry canonical rational strings ``p/q`` and round-trip
losslessly; integers past the ``str``/``int`` digit limit (4300 by default)
are split in halves by ``10**k``, as in gh-90716.  Float columns carry 12
significant digits (positional for exponents in [-4, 16), else scientific),
rounded half to even from the exact value: by the correctly rounded ``dtoa``
of ``format(x, ".11e")`` for a double (Gay 1990), by one integer division
for a rational.  Identical inputs always produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import IO

from .core import Range, Stage, UNBOUNDED, _coprime
from .errors import DomainError
from .figures import FigureData
from .scalars import LogScalar

_LN10 = math.log(10.0)
_LOG10_2 = math.log10(2.0)
_SIG = 12
_LOW, _HIGH = 10 ** (_SIG - 1), 10**_SIG  # the 12-digit integers
_CANONICAL = re.compile(r"(-?[1-9][0-9]*|0)/[1-9][0-9]*")


def _int_str(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # past the digit limit
        if value < 0:
            return "-" + _int_str(-value)
    k = int(value.bit_length() * _LOG10_2) // 2
    high, low = divmod(value, 10**k)
    return _int_str(high) + _int_str(low).zfill(k)


def _str_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the digit limit; `_CANONICAL` vetted the digits
        if digits[0] == "-":
            return -_str_int(digits[1:])
    k = len(digits) // 2
    return _str_int(digits[:-k]) * 10**k + _str_int(digits[-k:])


def fraction_str(value: Fraction) -> str:
    """Canonical rational string, always with an explicit denominator."""
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def parse_fraction(text: str) -> Fraction:
    """Inverse of `fraction_str`, for integers of any length; it takes nothing else."""
    if _CANONICAL.fullmatch(text):
        numerator, denominator = map(_str_int, text.split("/"))
        if math.gcd(numerator, denominator) == 1:
            return _coprime(numerator, denominator)
    raise DomainError(f"not a canonical rational string: {text!r}")


def range_str(r: Range) -> str:
    return "unbounded" if r is UNBOUNDED else str(r)


def _place_digits(digits: str, e: int) -> str:
    if -4 <= e < 16:
        if e >= _SIG - 1:
            return digits + "0" * (e - _SIG + 1)
        if e >= 0:
            return digits[: e + 1] + "." + digits[e + 1 :]
        return "0." + "0" * (-e - 1) + digits
    return digits[0] + "." + digits[1:] + f"e{e:+d}"


def _format_fraction(value) -> str:
    """12 digits of an int or `Fraction`, from its numerator and denominator."""
    num, den = value.numerator, value.denominator
    if num == 0:
        return "0.00000000000"
    sign, num = ("-", -num) if num < 0 else ("", num)
    # num/den lies within a factor 2 of 2**(the bit lengths' difference), so
    # e misses floor(log10(num/den)) by at most one; a quotient of 11 or 13
    # digits shows which way, and the division is redone
    e = math.floor((num.bit_length() - den.bit_length()) * _LOG10_2)
    while True:
        shift = _SIG - 1 - e
        a, b = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
        q, rem = divmod(a, b)
        if _LOW <= q < _HIGH:
            break
        e += 1 if q >= _HIGH else -1
    if 2 * rem > b or (2 * rem == b and q % 2 == 1):
        q += 1
        if q == _HIGH:
            q, e = _LOW, e + 1
    return sign + _place_digits(str(q), e)


def _format_float(value: float) -> str:
    mantissa, _, exponent = format(value, ".11e").partition("e")
    sign = "-" if value < 0 else ""  # not for -0.0
    return sign + _place_digits(mantissa.lstrip("-").replace(".", ""), int(exponent))


def _format_logscalar(value: LogScalar) -> str:
    if value.sign == 0:
        return "0.00000000000"
    as_float = value.to_float()
    if sys.float_info.min <= abs(as_float) < math.inf:
        return _format_float(as_float)
    # beyond the normal doubles (subnormals carry fewer than 53 bits):
    # digits straight from the log-domain magnitude
    sign = "-" if value.sign < 0 else ""
    l10 = value.log_abs / _LN10
    e = math.floor(l10)
    mantissa = 10.0 ** (l10 - e)
    q = round(mantissa * _LOW)
    if q >= _HIGH:  # 10.0 ** (l10 - e) lies in [1, 10], so q is at least _LOW
        q //= 10
        e += 1
    return sign + _place_digits(str(q), e)


def format_sig12(value) -> str:
    """Decimal string with exactly 12 significant digits."""
    if isinstance(value, float):
        return _format_float(value) if math.isfinite(value) else str(value)
    if isinstance(value, LogScalar):
        return _format_logscalar(value)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return _format_fraction(value)
    raise TypeError(f"cannot format {type(value).__name__}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(rows: list[dict], stream: IO[str]) -> None:
    """Write a table of row dicts; the keys of the first row are the header.

    Each row is joined with commas and written as it comes.  A row that
    `csv.writer` would quote or reject goes through it, so the bytes are its.
    """
    columns = list(rows[0])
    writer = csv.writer(stream, lineterminator="\n")
    for cells in chain([columns], ([_cell(row[col]) for col in columns] for row in rows)):
        line = ",".join(cells)
        # quotes, line breaks, NUL (3.10 rejects it), a stray comma, one empty cell
        if '"' in line or "\n" in line or "\r" in line or "\0" in line or (
            line.count(",") != len(columns) - 1 or not line
        ):
            writer.writerow(cells)
        else:
            stream.write(line + "\n")


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


def trajectory_rows(points, float_points=None) -> list[dict]:
    """Row dicts for the trajectory table.

    ``points`` give the stage columns, and the exact columns when their values
    are `Fraction`s (else those are empty).  The float columns render
    ``float_points`` when given, one per point, else ``points``.
    """
    return [
        {
            **_point_cells(base if isinstance(base.variety, Fraction) else None, fp),
            "delta_variety_float": format_sig12(fp.delta_variety),
            "stage": base.stage.value,
            "constrained": base.constrained,
            "hump": base.stage is Stage.DEVELOPED,
        }
        for base, fp in zip(points, points if float_points is None else float_points, strict=True)
    ]


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


def sweep_rows(trajectories) -> list[dict]:
    return [
        {"r": range_str(traj.params.r), **row}
        for traj in trajectories
        for row in trajectory_rows(traj.points)
    ]


def sweep_json_payload(rho: Fraction, trajectories) -> dict:
    return {
        "rho": fraction_str(rho),
        "trajectories": [
            trajectory_json_payload(traj.params, trajectory_rows(traj.points), traj)
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
    stats = [
        (f"length_{s}", report.per_length_expected[s], report.per_length_empirical[s],
         report.per_length_zscores[s])
        for s in range(report.n + 1)
    ]
    stats.append(("variety", report.expected_variety, report.empirical_variety,
                  report.variety_zscore))
    stats.append(("avg_length", report.expected_avg_length, report.empirical_avg_length,
                  report.avg_length_zscore))
    return [
        {"stat": stat, "expected": format_sig12(expected),
         "empirical": format_sig12(empirical), "zscore": format_sig12(zscore)}
        for stat, expected, empirical, zscore in stats
    ]


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
