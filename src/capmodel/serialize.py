"""Structured text output: canonical rationals, 12-digit decimals, CSV/JSON.

Exact columns carry canonical rational strings ``p/q`` and round-trip
losslessly; integers past the ``str``/``int`` digit limit (4300 by default)
are split in halves by ``10**k``, as in gh-90716.  Float columns carry 12
significant digits (positional for exponents in [-4, 16), else scientific),
rounded half to even from the exact value: by the correctly rounded ``dtoa``
of ``format(x, ".11e")`` for a double (Gay 1990), by one integer division
for a rational.  Identical inputs always produce identical bytes.

Every table is a `Table` of cell tuples, which `write_csv` and `write_json`
write row by row as the rows come, so a trajectory goes from the walk to the
bytes one point at a time.  Both write the bytes of `csv` and `json` without
importing either; only the readers `read_trajectory_csv` and
`read_trajectory_json` import them.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain
from typing import IO, TYPE_CHECKING, NamedTuple

from .core import Range, Stage, UNBOUNDED, _coprime
from .errors import DomainError
from .scalars import LogScalar

if TYPE_CHECKING:
    from .figures import FigureData

_LN10 = math.log(10.0)
_LOG10_2 = math.log10(2.0)
_SIG = 12
_LOW, _HIGH = 10 ** (_SIG - 1), 10**_SIG  # the 12-digit integers
_CANONICAL = r"(-?[1-9][0-9]*|0)/[1-9][0-9]*"  # compiled on first use, by `re`'s cache


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
    if re.fullmatch(_CANONICAL, text):
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


class Table(NamedTuple):
    """A header and its rows, each a tuple of cells (str, int, bool or None).

    `write_csv` writes it as lines and `write_json` as a list of objects, each
    row as it comes, so ``rows`` may be a one-pass iterator.
    """

    columns: tuple[str, ...]
    rows: Iterable[tuple]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(table: Table, stream: IO[str]) -> None:
    """Write the header line, then each row's cells joined with commas.

    These are the bytes of `csv.writer`, which quotes no cell a table emits.
    A line it would quote or reject raises `ValueError`.
    """
    width = len(table.columns)
    lines = ([v if type(v) is str else _cell(v) for v in row] for row in table.rows)
    for cells in chain([table.columns], lines):
        line = ",".join(cells)
        # quotes, line breaks, NUL (3.10 rejects it), a stray comma, one empty cell
        if '"' in line or "\n" in line or "\r" in line or "\0" in line or (
            line.count(",") != width - 1 or not line
        ):
            raise ValueError(f"a CSV line would need quoting: {cells!r}")
        stream.write(line + "\n")


def write_json(payload, stream: IO[str]) -> None:
    """Write ``payload`` as ``json.dump(payload, stream, indent=2)`` does, then a newline.

    A list may also be given as an iterator, and a `Table` stands for the list
    of its rows as objects; each item is written as it comes.  Dict keys are
    strs, and the scalars are those a table emits: str, int, bool and None.
    `json` encodes a str with its C encoder and an int with ``repr``, as here;
    any indent would send the whole payload through its pure-Python encoder.
    Any other scalar, a float included, raises `TypeError`.
    """
    from _json import encode_basestring_ascii as string  # what `json` uses, without `json`

    literals = {True: "true", False: "false", None: "null"}

    def scalar(value) -> str:
        if type(value) is str:
            return string(value)
        if type(value) is int:
            return int.__repr__(value)
        if value is None or type(value) is bool:
            return literals[value]
        raise TypeError(f"cannot write a {type(value).__name__} as JSON")

    def items(values, indent: str, render) -> None:
        """Write ``[...]``, each item at ``indent`` by ``render(item, indent)``."""
        sep = "[\n" + indent
        for item in values:
            stream.write(sep)
            render(item, indent)
            sep = ",\n" + indent
        stream.write("[]" if sep.startswith("[") else "\n" + indent[:-2] + "]")

    def write(value, indent: str) -> None:
        inner = indent + "  "
        if isinstance(value, dict):
            sep = "{\n" + inner
            for key, item in value.items():
                stream.write(sep + string(key) + ": ")  # a TypeError for a key that is no str
                write(item, inner)
                sep = ",\n" + inner
            stream.write("{}" if sep.startswith("{") else "\n" + indent + "}")
        elif isinstance(value, Table):  # one %-template for every row
            fields = [f"\n{inner}  {string(c).replace('%', '%%')}: %s" for c in value.columns]
            row = "{" + ",".join(fields) + f"\n{inner}}}" if fields else "{}"
            items(value.rows, inner, lambda cells, _: stream.write(row % tuple(map(scalar, cells))))
        elif isinstance(value, (list, tuple, Iterator)):
            items(value, inner, write)
        else:
            stream.write(scalar(value))

    write(payload, "")
    stream.write("\n")


# -- trajectories ----------------------------------------------------------

_POINT_COLUMNS = ("n", "variety_exact", "variety_float", "avg_length_exact", "avg_length_float")
_TRAJECTORY_COLUMNS = (*_POINT_COLUMNS, "delta_variety_float", "stage", "constrained", "hump")


def _point_cells(exact, point) -> tuple:
    # exact cells render the point ``exact`` (empty when it is None), float cells ``point``
    n, variety, avg_length, *_ = point
    exact_variety, exact_avg = (None, None) if exact is None else map(fraction_str, exact[1:3])
    return n, exact_variety, format_sig12(variety), exact_avg, format_sig12(avg_length)


def _trajectory_cells(points, float_points):
    if float_points is None:
        pairs = ((point, point) for point in points)
    else:
        pairs = zip(points, float_points, strict=True)
    for base, floats in pairs:
        _, variety, _, _, stage, constrained = base
        exact = base if isinstance(variety, Fraction) else None
        yield (*_point_cells(exact, floats), format_sig12(floats[3]), stage.value, constrained,
               stage is Stage.DEVELOPED)


def trajectory_rows(points, float_points=None) -> Table:
    """The trajectory table, one row per point as it comes.

    ``points`` (`TrajectoryPoint`s or the same fields as plain tuples) give the
    stage columns, and the exact columns when their values are `Fraction`s
    (else those are empty).  The float columns render ``float_points`` when
    given, one per point, else ``points``.
    """
    return Table(_TRAJECTORY_COLUMNS, _trajectory_cells(points, float_points))


def trajectory_json_payload(params, rows: Table, trajectory=None, backend=None) -> dict:
    payload = {
        "params": {
            "rho": fraction_str(params.rho),
            "r": range_str(params.r),
            "backend": backend or params.backend,
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
    import csv

    return [parse_trajectory_row(row) for row in csv.DictReader(stream)]


def read_trajectory_json(stream: IO[str]) -> dict:
    import json

    payload = json.load(stream)
    payload["points"] = [parse_trajectory_row(row) for row in payload["points"]]
    return payload


# -- sweeps ----------------------------------------------------------------


def sweep_rows(trajectories) -> Table:
    """The trajectory tables one after another, each row led by its range."""
    rows = (
        (r, *cells)
        for traj in trajectories
        for r in [range_str(traj.params.r)]
        for cells in _trajectory_cells(traj.points, None)
    )
    return Table(("r", *_TRAJECTORY_COLUMNS), rows)


def sweep_json_payload(rho: Fraction, trajectories, onsets_nondecreasing: bool) -> dict:
    return {
        "rho": fraction_str(rho),
        "trajectories": (
            trajectory_json_payload(traj.params, trajectory_rows(traj.points), traj)
            for traj in trajectories
        ),
        "hump_onsets_nondecreasing": onsets_nondecreasing,
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


def figure_rows(fig: FigureData) -> Table:
    marker_at: dict[tuple[str, int], list[str]] = {}
    for name, n in fig.markers.items():
        marker_at.setdefault((_marker_target(name, fig), n), []).append(name)
    rows = (
        (fig.figure_id, series.name, *_point_cells(point, point),
         ";".join(marker_at.get((series.name, point.n), [])))
        for series in fig.series
        for point in series.points
    )
    return Table(("figure", "series", *_POINT_COLUMNS, "marker"), rows)


def figure_json_payload(fig: FigureData) -> dict:
    return {
        "figure": fig.figure_id,
        "rho": fraction_str(fig.rho),
        "markers": dict(fig.markers),
        "series": [
            {
                "name": series.name,
                "r": range_str(series.r),
                "points": Table(_POINT_COLUMNS, (_point_cells(pt, pt) for pt in series.points)),
            }
            for series in fig.series
        ],
    }


# -- oracle reports --------------------------------------------------------


def oracle_rows(report) -> Table:
    stats = [
        (f"length_{s}", report.per_length_expected[s], report.per_length_empirical[s],
         report.per_length_zscores[s])
        for s in range(report.n + 1)
    ]
    stats.append(("variety", report.expected_variety, report.empirical_variety,
                  report.variety_zscore))
    stats.append(("avg_length", report.expected_avg_length, report.empirical_avg_length,
                  report.avg_length_zscore))
    rows = [
        (stat, format_sig12(expected), format_sig12(empirical), format_sig12(zscore))
        for stat, expected, empirical, zscore in stats
    ]
    return Table(("stat", "expected", "empirical", "zscore"), rows)


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


def validate_rows(checks) -> Table:
    rows = [
        (check.n, range_str(check.r), fraction_str(check.rho), format_sig12(check.variety_rel_dev),
         format_sig12(check.avg_length_rel_dev), check.ok)
        for check in checks
    ]
    return Table(("n", "r", "rho", "variety_rel_dev", "avg_length_rel_dev", "ok"), rows)


def validate_json_payload(checks, tol: float) -> dict:
    """The rows of ``checks``, each rendered as it comes, and ``all_ok`` read off their cells."""
    table = validate_rows(checks)
    return {"tol": format_sig12(tol), "checks": table, "all_ok": all(ok for *_, ok in table.rows)}


# -- hump ------------------------------------------------------------------


def hump_payload(rho: Fraction, r: int, n_max: int, onset: int | None) -> dict:
    """The hump table's one row: JSON writes it as an object, `hump_rows` as a `Table`."""
    return {"rho": fraction_str(rho), "r": r, "n_max": n_max, "onset": onset}


def hump_rows(payload: dict) -> Table:
    return Table(tuple(payload), [tuple(payload.values())])
