"""Checks of capmodel's CLI outputs against the independent reference.

`Checker.check(argv, path)` reads the file a command wrote with ``--out`` and
returns a list of problems (empty when the output is right).  What it checks:

* exact columns equal the reference's direct sums on a seeded sample of rows
  (the last row of every table is always in the sample), and log-backend
  floats equal mpmath's direct sums on the same sample;
* on every row, float columns of exact values are within 12-digit rounding
  (5e-12 relative) of the reference's exact values; log-backend floats are
  within the documented 1e-9 (plus the rounding), and the delta within that
  share of ``variety(n)``, because the delta crosses zero at the hump;
* on every row, ``constrained`` is ``r < n``, ``hump`` is ``r < n and
  variety(n+1) < variety(n)``, and the stage follows from the two;
* every reported hump onset (landmarks, figure markers, sweep onsets, the
  ``hump`` command) is the first such n;
* oracle expectations equal the closed forms; validate reports every point
  within its tolerance.

The exit code is judged by the caller: a command that exits non-zero is a
failed operation and its output is not checked.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import mpmath

import reference as ref
import workloads

SAMPLE_ROWS = 8
RENDER_TOL = Fraction(5, 10**12)
FLOAT_TOL = RENDER_TOL + Fraction(1, 2**52)
LOG_TOL = Fraction(1, 10**9) + RENDER_TOL
TOO_MANY = 20

FIGURES = {1: ("1", (None, 5)), 2: ("1/2", (None, 30)), 3: ("1/2", (5, 10, 20, 30))}


@contextmanager
def unlimited_int_digits():
    """Let this process print and parse integers of any length while checking."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _range(text: str | None) -> int | None:
    return None if text in (None, "unbounded") else int(text)


def _canonical(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _flag(value) -> bool:
    return value if isinstance(value, bool) else value == "true"


def _blank(value) -> bool:
    return value in (None, "")


def _onset(value) -> int | None:
    return None if value in (None, "") else int(value)


def _approx(value: Fraction) -> str:
    """A Fraction to 15 digits, whatever its magnitude."""
    with mpmath.mp.workdps(ref.DIGITS):
        return mpmath.nstr(mpmath.mpf(value.numerator) / value.denominator, 15)


def _reverts(flags: list[bool]) -> bool:
    return any(a and not b for a, b in zip(flags, flags[1:]))


def _nondecreasing(onsets: list[int | None]) -> bool:
    """Onsets in order of r, a missing onset counting as later than any."""
    seen_missing = False
    last = None
    for onset in onsets:
        if onset is None:
            seen_missing = True
            continue
        if seen_missing or (last is not None and onset < last):
            return False
        last = onset
    return True


class Checker:
    def __init__(self, seed: int):
        self.seed = seed
        self._sums: dict[tuple[Fraction, int | None], ref.WindowSums] = {}

    def _seq(self, rho: Fraction, r: int | None) -> ref.WindowSums:
        """One sequence of window sums per (rho, r), shared by every check of a run."""
        if (rho, r) not in self._sums:
            self._sums[rho, r] = ref.WindowSums(rho, r)
        return self._sums[rho, r]

    def check(self, argv: list[str], path: str) -> list[str]:
        command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
        label = " ".join(a for a in argv if a != path and a != "--out")
        fmt = workloads.output_format(argv)
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                data = list(csv.DictReader(fh)) if fmt == "csv" else json.load(fh)
            with unlimited_int_digits():
                problems = getattr(self, "_" + command)(label, opts, fmt, data)
        except (OSError, ValueError, ArithmeticError, LookupError, TypeError, AttributeError) as exc:
            problems = [f"{label}: unreadable output ({type(exc).__name__}: {exc})"]
        return problems[:TOO_MANY]

    # -- per-command checks --------------------------------------------------

    def _eval(self, label, opts, fmt, data):
        rho, r = ref.parse_rho(opts["--rho"]), _range(opts.get("--r"))
        backend = opts.get("--backend", "exact")
        rows = data if fmt == "csv" else data["points"]
        problems = self._table(label, rows, rho, r, backend, [int(opts["--n"])])
        if fmt == "json":
            problems += self._params(label, data["params"], rho, r, backend)
        return problems

    def _trajectory(self, label, opts, fmt, data):
        rho, r = ref.parse_rho(opts["--rho"]), _range(opts.get("--r"))
        backend, n_max = opts.get("--backend", "exact"), int(opts["--n-max"])
        rows = data if fmt == "csv" else data["points"]
        problems = self._table(label, rows, rho, r, backend, range(n_max + 1))
        if fmt == "json":
            problems += self._params(label, data["params"], rho, r, backend)
            problems += self._landmarks(label, data, rho, r, n_max)
        return problems

    def _sweep(self, label, opts, fmt, data):
        rho, n_max = ref.parse_rho(opts["--rho"]), int(opts["--n-max"])
        backend = opts.get("--backend", "exact")
        r_values = [int(x) for x in opts["--r-values"].split(",")]
        if fmt == "csv":
            groups: dict[str, list] = {}
            for row in data:
                groups.setdefault(row["r"], []).append(row)
            tables = list(groups.items())
        else:
            tables = [(t["params"]["r"], t["points"]) for t in data["trajectories"]]
        if [name for name, _ in tables] != [str(r) for r in r_values]:
            return [f"{label}: trajectories for r = {[name for name, _ in tables]}, want {r_values}"]
        problems = []
        for r, (_, rows) in zip(r_values, tables):
            problems += self._table(f"{label} [r={r}]", rows, rho, r, backend, range(n_max + 1))
        if fmt == "json":
            for r, traj in zip(r_values, data["trajectories"]):
                problems += self._params(f"{label} [r={r}]", traj["params"], rho, r, backend)
                problems += self._landmarks(f"{label} [r={r}]", traj, rho, r, n_max)
            want = _nondecreasing([self._seq(rho, r).onset(n_max) for r in r_values])
            if data["hump_onsets_nondecreasing"] != want:
                problems.append(f"{label}: hump_onsets_nondecreasing should be {want}")
        return problems

    def _hump(self, label, opts, fmt, data):
        rho, r = ref.parse_rho(opts["--rho"]), int(opts["--r"])
        n_max = int(opts["--n-max"])
        got = _onset((data[0] if fmt == "csv" else data)["onset"])
        want = self._seq(rho, r).onset(n_max)
        return [] if got == want else [f"{label}: onset {got}, want {want}"]

    def _figures(self, label, opts, fmt, data):
        figure_id = int(opts["--id"])
        rho_text, ranges = FIGURES[figure_id]
        rho = ref.parse_rho(rho_text)
        names = ["unconstrained" if r is None else f"r={r}" for r in ranges]
        if fmt == "csv":
            series: dict[str, list] = {}
            for row in data:
                series.setdefault(row["series"], []).append(row)
            if any(int(row["figure"]) != figure_id for row in data):
                return [f"{label}: rows of another figure"]
        else:
            series = {s["name"]: s["points"] for s in data["series"]}
        if list(series) != names:
            return [f"{label}: series {list(series)}, want {names}"]
        n_max = len(series[names[0]]) - 1
        problems = []
        for name, r in zip(names, ranges):
            problems += self._table(
                f"{label} [{name}]", series[name], rho, r, "exact", range(n_max + 1), flags=False
            )
        bounded = [r for r in ranges if r is not None]
        want = {}
        if figure_id in (1, 2) and n_max >= bounded[0] + 1:
            want["constrained_from"] = (f"r={bounded[0]}", bounded[0] + 1)
        for r in bounded if figure_id in (2, 3) else ():
            onset = self._seq(rho, r).onset(n_max)
            if onset is not None:
                want["hump_onset" if figure_id == 2 else f"hump_onset_r={r}"] = (f"r={r}", onset)
        if fmt == "csv":
            # a marker sits on the row of the bounded series it belongs to
            got = {
                marker: (row["series"], int(row["n"]))
                for row in data
                for marker in row["marker"].split(";")
                if marker
            }
        else:
            got = data["markers"]
            want = {marker: n for marker, (_, n) in want.items()}
        if got != want:
            problems.append(f"{label}: markers {got}, want {want}")
        return problems

    def _oracle(self, label, opts, fmt, data):
        n, rho, r = int(opts["--n"]), ref.parse_rho(opts["--rho"]), _range(opts.get("--r"))
        rows = data if fmt == "csv" else data["stats"]
        stats = {row["stat"]: row["expected"] for row in rows}
        want = {f"length_{s}": math.comb(n, s) * rho**s for s in range(n + 1)}
        want["variety"] = ref.variety(n, rho, r)
        want["avg_length"] = ref.avg_length(n, rho, r)
        if list(stats) != list(want):
            return [f"{label}: stats {list(stats)}, want {list(want)}"]
        problems = [
            f"{label}: expected {stat} = {stats[stat]}, reference {_approx(value)}"
            for stat, value in want.items()
            if abs(Fraction(stats[stat]) - value) > FLOAT_TOL * abs(value)
        ]
        if fmt == "json" and (data["base_seed"], data["trials"]) != (
            int(opts["--seed"]),
            int(opts["--trials"]),
        ):
            problems.append(f"{label}: base_seed/trials do not echo the command")
        return problems

    def _validate(self, label, opts, fmt, data):
        rho, r = ref.parse_rho(opts["--rho"]), _range(opts.get("--r"))
        n_max, tol = int(opts["--n-max"]), float(opts.get("--tol", "1e-9"))
        rows = data if fmt == "csv" else data["checks"]
        if [int(row["n"]) for row in rows] != list(range(n_max + 1)):
            return [f"{label}: n axis is not 0..{n_max}"]
        problems = [
            f"{label}: n={row['n']} not within tol"
            for row in rows
            if not _flag(row["ok"])
            or float(row["variety_rel_dev"]) > tol
            or float(row["avg_length_rel_dev"]) > tol
            or row["rho"] != _canonical(rho)
            or _range(row["r"]) != r
        ]
        if fmt == "json" and data["all_ok"] is not True:
            problems.append(f"{label}: all_ok is not true")
        return problems

    # -- shared pieces ---------------------------------------------------------

    def _table(self, label, rows, rho, r, backend, n_values, flags=True):
        n_values = list(n_values)
        if [int(row["n"]) for row in rows] != n_values:
            return [f"{label}: n axis is not {n_values[0]}..{n_values[-1]}"]
        # a single point is cheaper by direct sums than by a sequence from 0
        seq = self._seq(rho, r) if len(rows) > 1 else None
        problems = []
        for row in rows:
            problems += self._row(label, row, rho, r, backend, seq, flags)
        rng = random.Random(f"{self.seed}:{label}")
        sample = set(rng.sample(range(len(rows)), min(SAMPLE_ROWS, len(rows)))) | {len(rows) - 1}
        for i in sorted(sample):
            problems += self._sampled(label, rows[i], rho, r, backend, delta=flags)
        return problems

    def _row(self, label, row, rho, r, backend, seq, flags):
        """Flags and float columns of one row, against exact values."""
        n = int(row["n"])
        if seq is None:
            (v, a, d), hump = ref.exact_values(n, rho, r), ref.hump(n, rho, r)
        else:
            (v, a, d), hump = seq.values(n), seq.hump(n)
        problems = []
        if flags:
            constrained = r is not None and r < n
            stage = "developed" if hump else "transitioning" if constrained else "developing"
            got = (_flag(row["constrained"]), _flag(row["hump"]), row["stage"])
            if got != (constrained, hump, stage):
                problems.append(f"{label}: n={n} flags {got}, want {(constrained, hump, stage)}")
        # exact values are rendered to 12 digits; log-backend values carry the
        # documented 1e-9, and the delta is measured against variety(n)
        tol = RENDER_TOL if backend == "exact" else LOG_TOL
        floats = [("variety_float", v, v), ("avg_length_float", a, a)]
        if flags:
            floats.append(("delta_variety_float", d, d if backend == "exact" else v))
        for col, value, scale in floats:
            if abs(Fraction(row[col]) - value) > tol * abs(scale):
                problems.append(f"{label}: n={n} {col} = {row[col]}, exact {_approx(value)}")
        return problems

    def _sampled(self, label, row, rho, r, backend, delta=True):
        """Exact columns against direct sums and log floats against mpmath."""
        n = int(row["n"])
        at = f"{label}: n={n}"
        problems = []
        if backend == "logfloat":
            if not (_blank(row["variety_exact"]) and _blank(row["avg_length_exact"])):
                problems.append(f"{at} logfloat row carries exact columns")
        else:
            v, a, _ = ref.exact_values(n, rho, r)
            for col, value in (("variety_exact", v), ("avg_length_exact", a)):
                if row[col] != _canonical(value):
                    problems.append(f"{at} {col} differs from the direct sum {_approx(value)}")
        if backend == "exact":
            return problems
        cols = ["variety_float", "avg_length_float"] + ["delta_variety_float"] * delta
        lv, la, ld = ref.log_values(n, rho, r)
        with mpmath.mp.workdps(ref.DIGITS):
            for col, value, scale in zip(cols, (lv, la, ld), (lv, la, lv)):
                if abs(mpmath.mpf(row[col]) - value) > float(LOG_TOL) * abs(scale):
                    problems.append(f"{at} {col} = {row[col]} is not {mpmath.nstr(value, 15)} within {float(LOG_TOL):g}")
        return problems

    def _params(self, label, params, rho, r, backend):
        want = {"rho": _canonical(rho), "r": "unbounded" if r is None else str(r), "backend": backend}
        return [] if params == want else [f"{label}: params {params}, want {want}"]

    def _landmarks(self, label, data, rho, r, n_max):
        if r is None:
            want = (None, None, False)
        else:
            seq = self._seq(rho, r)
            flags = [seq.hump(n) for n in range(n_max + 1)]
            onset = self._seq(rho, r).onset(n_max)
            want = (r + 1 if n_max >= r + 1 else None, onset, _reverts(flags))
        got = (data["transition_constrained_at"], data["hump_onset_at"], data["non_monotone_flag"])
        return [] if got == want else [f"{label}: landmarks {got}, want {want}"]

