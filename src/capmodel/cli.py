"""Command-line surface: argument/config parsing, dispatch, serialization.

Exit codes: 0 success, 1 a validation command found deviations beyond its
tolerance, 2 usage error, 3 I/O error.  Values from a ``--config`` JSON file
are merged below explicit flags; unknown config keys are rejected.  All
randomness requires an explicit seed or uses the documented fixed default,
so rerunning any command with identical arguments produces identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import serialize
from .core import (
    EXACT,
    LOGFLOAT,
    ModelParams,
    UNBOUNDED,
    _cross_checks,
    checked_rho,
)
from .errors import DomainError, ResourceLimitError
from .figures import FIGURE_IDS, figure_dataset
from .oracle import MODES, PER_LENGTH_BINOMIAL, validate_expectations
from .trajectory import (
    evaluate_point,
    find_hump_onset,
    hump_onsets_nondecreasing,
    run_trajectory,
    sweep_range,
)

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 1000
DEFAULT_TOL = 1e-9
DEFAULT_Z_MAX = 4.0
DEFAULT_HUMP_N_MAX = 500
DEFAULT_VALIDATE_N_MAX = 100

FORMATS = ("csv", "json")
BOTH = "both"


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    rho: Fraction | None = None
    r: int | None = None
    n: int | None = None
    n_max: int | None = None
    trials: int | None = None
    seed: int | None = None
    backend: str | None = None
    output_path: str | None = None
    format: str = "csv"
    tol: float | None = None
    z_max: float | None = None
    mode: str | None = None
    r_values: tuple[int, ...] | None = None
    figure_id: int | None = None


_COMMAND_FIELDS = {
    "eval": {"rho", "r", "n", "backend", "format", "out"},
    "trajectory": {"rho", "r", "n_max", "backend", "format", "out"},
    "sweep": {"rho", "r_values", "n_max", "backend", "format", "out"},
    "hump": {"rho", "r", "n_max", "format", "out"},
    "oracle": {"n", "rho", "r", "trials", "seed", "mode", "z_max", "format", "out"},
    "validate": {"rho", "r", "n_max", "tol", "format", "out"},
    "figures": {"id", "n_max", "format", "out"},
}

_DEFAULTS = {
    "eval": {"r": "unbounded", "backend": EXACT, "format": "csv"},
    "trajectory": {"r": "unbounded", "backend": EXACT, "format": "csv"},
    "sweep": {"backend": EXACT, "format": "csv"},
    "hump": {"n_max": DEFAULT_HUMP_N_MAX, "format": "json"},
    "oracle": {
        "r": "unbounded",
        "trials": DEFAULT_TRIALS,
        "seed": DEFAULT_SEED,
        "mode": PER_LENGTH_BINOMIAL,
        "z_max": DEFAULT_Z_MAX,
        "format": "csv",
    },
    "validate": {"r": "unbounded", "n_max": DEFAULT_VALIDATE_N_MAX, "format": "csv"},
    "figures": {"format": "csv"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capmodel",
        description="Combinatorial capability model: variety, complexity, stages, hump.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, format_default="csv"):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", help=f"output format: csv | json (default: {format_default})")

    p = sub.add_parser("eval", help="evaluate all closed forms at one (n, r, rho)")
    p.add_argument("--rho", help="viability probability in (0,1], e.g. 0.5 or 1/2")
    p.add_argument("--r", help="product range: nonnegative integer or 'unbounded' (default)")
    p.add_argument("--n", help="number of capabilities")
    p.add_argument("--backend", help="exact | logfloat | both (default: exact)")
    add_common(p)

    p = sub.add_parser("trajectory", help="evaluate n = 0..n-max and tag stages")
    p.add_argument("--rho", help="viability probability in (0,1]")
    p.add_argument("--r", help="product range or 'unbounded' (default)")
    p.add_argument("--n-max", dest="n_max", help="last n (default: max(3r, 50))")
    p.add_argument("--backend", help="exact | logfloat | both (default: exact)")
    add_common(p)

    p = sub.add_parser("sweep", help="one trajectory per r value")
    p.add_argument("--rho", help="viability probability in (0,1]")
    p.add_argument("--r-values", dest="r_values", help="comma-separated ranges, e.g. 5,10,20,30")
    p.add_argument("--n-max", dest="n_max", help="last n (default: max over r of max(3r, 50))")
    p.add_argument("--backend", help="exact | logfloat (default: exact)")
    add_common(p)

    p = sub.add_parser("hump", help="first n where variety declines at the next step")
    p.add_argument("--rho", help="viability probability in (0,1]")
    p.add_argument("--r", help="bounded product range")
    p.add_argument("--n-max", dest="n_max", help=f"scan bound (default: {DEFAULT_HUMP_N_MAX})")
    add_common(p, format_default="json")

    p = sub.add_parser("oracle", help="seeded sampling vs closed-form expectations")
    p.add_argument("--n", help="number of capabilities")
    p.add_argument("--rho", help="viability probability in (0,1]")
    p.add_argument("--r", help="product range or 'unbounded' (default)")
    p.add_argument("--trials", help=f"number of sampled books (default: {DEFAULT_TRIALS})")
    p.add_argument("--seed", help=f"base seed (default: {DEFAULT_SEED})")
    p.add_argument("--mode", help="per-subset | per-length-binomial (default)")
    p.add_argument("--z-max", dest="z_max", help=f"|z| beyond this exits 1 (default: {DEFAULT_Z_MAX})")
    add_common(p)

    p = sub.add_parser("validate", help="exact vs log backend over n = 0..n-max")
    p.add_argument("--rho", help="viability probability in (0,1]")
    p.add_argument("--r", help="product range or 'unbounded' (default)")
    p.add_argument("--n-max", dest="n_max", help=f"last n (default: {DEFAULT_VALIDATE_N_MAX})")
    p.add_argument("--tol", help=f"relative tolerance; beyond it exits 1 (default: {DEFAULT_TOL})")
    add_common(p)

    p = sub.add_parser("figures", help="emit the dataset behind figure 1, 2, or 3")
    p.add_argument("--id", help="figure id: 1, 2, or 3")
    p.add_argument("--n-max", dest="n_max", help="override the figure's n axis")
    add_common(p)

    return parser


# -- normalization ----------------------------------------------------------


def _fail(field: str, message: str) -> UsageError:
    return UsageError(f"{field}: {message}")


def _norm_rho(value) -> Fraction:
    if isinstance(value, float):
        raise _fail("rho", "floats are inexact; pass a string like '0.5' or a ratio '1/2'")
    try:
        return checked_rho(value)
    except DomainError as exc:
        raise _fail("rho", str(exc)) from exc


def _norm_range(value, field: str = "r"):
    if value is None or value == "unbounded":
        return UNBOUNDED
    if isinstance(value, bool):
        raise _fail(field, f"expected an integer or 'unbounded', got {value!r}")
    if isinstance(value, int):
        parsed = value
    elif isinstance(value, str):
        try:
            parsed = int(value)
        except ValueError:
            raise _fail(field, f"expected an integer or 'unbounded', got {value!r}") from None
    else:
        raise _fail(field, f"expected an integer or 'unbounded', got {value!r}")
    if parsed < 0:
        raise _fail(field, f"must be nonnegative, got {parsed}")
    return parsed


def _norm_int(value, field: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or (not isinstance(value, (int, str))):
        raise _fail(field, f"expected an integer, got {value!r}")
    try:
        parsed = int(value)
    except ValueError:
        raise _fail(field, f"expected an integer, got {value!r}") from None
    if parsed < minimum:
        raise _fail(field, f"must be >= {minimum}, got {parsed}")
    return parsed


def _norm_float(value, field: str) -> float:
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        raise _fail(field, f"expected a number, got {value!r}") from None
    if not parsed > 0:
        raise _fail(field, f"must be positive, got {parsed}")
    return parsed


def _norm_choice(value, field: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise _fail(field, f"expected one of {', '.join(choices)}; got {value!r}")
    return value


def _norm_r_values(value) -> tuple[int, ...]:
    if isinstance(value, str):
        parts = [part.strip() for part in value.split(",") if part.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise _fail("r-values", f"expected a comma-separated list, got {value!r}")
    if not parts:
        raise _fail("r-values", "must be nonempty")
    return tuple(_norm_int(part, "r-values") for part in parts)


def _require(merged: dict, field: str):
    value = merged.get(field)
    if value is None:
        raise _fail(field, "is required")
    return value


def parse_config(argv=None) -> RunConfig:
    """Parse argv (and an optional JSON config file) into a RunConfig.

    Precedence: built-in defaults < config file < explicit flags.
    """
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)

    merged = dict(_DEFAULTS[command])
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise UsageError(f"config: cannot read {config_path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config: invalid JSON in {config_path!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config: top level must be a JSON object")
        for key, value in file_values.items():
            if key not in _COMMAND_FIELDS[command]:
                raise UsageError(f"config: unknown key {key!r} for command {command!r}")
            merged[key] = value
    for key, value in args.items():
        if value is not None:
            merged[key] = value

    fields = _COMMAND_FIELDS[command]
    out = merged.get("out")
    fmt = _norm_choice(merged.get("format", "csv"), "format", FORMATS)

    kwargs: dict = {"command": command, "output_path": out, "format": fmt}
    if "rho" in fields:
        kwargs["rho"] = _norm_rho(_require(merged, "rho"))
    if "r" in fields:
        if command == "hump":
            kwargs["r"] = _norm_int(_require(merged, "r"), "r")
        else:
            kwargs["r"] = _norm_range(merged.get("r"))
    if "n" in fields:
        kwargs["n"] = _norm_int(_require(merged, "n"), "n")
    if "n_max" in fields and merged.get("n_max") is not None:
        kwargs["n_max"] = _norm_int(merged["n_max"], "n-max")
    if "trials" in fields:
        kwargs["trials"] = _norm_int(merged.get("trials", DEFAULT_TRIALS), "trials", minimum=30)
    if "seed" in fields:
        kwargs["seed"] = _norm_int(merged.get("seed", DEFAULT_SEED), "seed")
    if "backend" in fields:
        allowed = (EXACT, LOGFLOAT, BOTH) if command in ("eval", "trajectory") else (EXACT, LOGFLOAT)
        kwargs["backend"] = _norm_choice(merged.get("backend", EXACT), "backend", allowed)
    if "mode" in fields:
        kwargs["mode"] = _norm_choice(merged.get("mode", PER_LENGTH_BINOMIAL), "mode", MODES)
    if "z_max" in fields:
        kwargs["z_max"] = _norm_float(merged.get("z_max", DEFAULT_Z_MAX), "z-max")
    if "tol" in fields:
        kwargs["tol"] = _norm_float(merged.get("tol", DEFAULT_TOL), "tol")
    if "r_values" in fields:
        kwargs["r_values"] = _norm_r_values(_require(merged, "r_values"))
    if "id" in fields:
        figure_id = _norm_int(_require(merged, "id"), "id")
        if figure_id not in FIGURE_IDS:
            raise _fail("id", f"must be one of {FIGURE_IDS}, got {figure_id}")
        kwargs["figure_id"] = figure_id
    return RunConfig(**kwargs)


# -- dispatch ----------------------------------------------------------------


def _write_output(config: RunConfig, write_fn) -> None:
    path = config.output_path
    if path is None or path == "-":
        write_fn(sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_fn(fh)
    print(f"wrote {path}")


def _cmd_eval(config: RunConfig) -> int:
    return _write_points(config, lambda params: ((evaluate_point(params, config.n),), None))


def _cmd_trajectory(config: RunConfig) -> int:
    def run(params):
        trajectory = run_trajectory(params, config.n_max)
        return trajectory.points, trajectory

    return _write_points(config, run)


def _write_points(config: RunConfig, run) -> int:
    """Write the points ``run(params)`` returns for each requested backend.

    ``run`` returns the points and the trajectory they belong to (or None);
    with both backends the exact run supplies stages and landmarks.
    """
    backends = (EXACT, LOGFLOAT) if config.backend == BOTH else (config.backend,)
    results = {}
    for backend in backends:
        params = ModelParams(config.rho, config.r, backend)
        results[backend] = (params, *run(params))
    points = {backend: result[1] for backend, result in results.items()}
    rows = serialize.trajectory_rows(points.get(EXACT), points.get(LOGFLOAT))
    params, _, trajectory = results[backends[0]]

    def write(stream):
        if config.format == "csv":
            serialize.write_csv(serialize.TRAJECTORY_COLUMNS, rows, stream)
        else:
            payload = serialize.trajectory_json_payload(params, rows, trajectory)
            payload["params"]["backend"] = config.backend
            serialize.write_json(payload, stream)

    _write_output(config, write)
    return 0


def _cmd_sweep(config: RunConfig) -> int:
    trajectories = sweep_range(config.rho, list(config.r_values), config.n_max, config.backend)
    nondecreasing = hump_onsets_nondecreasing(trajectories)

    def write(stream):
        if config.format == "csv":
            serialize.write_csv(serialize.SWEEP_COLUMNS, serialize.sweep_rows(trajectories), stream)
        else:
            payload = serialize.sweep_json_payload(config.rho, trajectories)
            payload["hump_onsets_nondecreasing"] = nondecreasing
            serialize.write_json(payload, stream)

    _write_output(config, write)
    print(f"hump onsets nondecreasing in r: {str(nondecreasing).lower()}")
    return 0


def _cmd_hump(config: RunConfig) -> int:
    onset = find_hump_onset(config.r, config.rho, config.n_max)
    if config.output_path is not None:
        def write(stream):
            if config.format == "csv":
                serialize.write_csv(
                    serialize.HUMP_COLUMNS,
                    serialize.hump_rows(config.rho, config.r, config.n_max, onset),
                    stream,
                )
            else:
                serialize.write_json(
                    serialize.hump_json_payload(config.rho, config.r, config.n_max, onset), stream
                )
        _write_output(config, write)
    if onset is None:
        print(f"hump onset: none within n <= {config.n_max}")
    else:
        print(f"hump onset: {onset}")
    return 0


def _cmd_oracle(config: RunConfig) -> int:
    report = validate_expectations(
        config.n, config.rho, config.r, config.trials, config.seed, config.mode
    )

    def write(stream):
        if config.format == "csv":
            serialize.write_csv(serialize.ORACLE_COLUMNS, serialize.oracle_rows(report), stream)
        else:
            serialize.write_json(serialize.oracle_json_payload(report), stream)

    _write_output(config, write)
    ok = report.within(config.z_max)
    print(
        f"max |z| = {report.max_abs_zscore:.3f} over {config.trials} trials "
        f"(threshold {config.z_max}): {'OK' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _cmd_validate(config: RunConfig) -> int:
    checks = _cross_checks(config.n_max, config.rho, config.r, config.tol)

    def write(stream):
        if config.format == "csv":
            serialize.write_csv(serialize.VALIDATE_COLUMNS, serialize.validate_rows(checks), stream)
        else:
            serialize.write_json(serialize.validate_json_payload(checks, config.tol), stream)

    _write_output(config, write)
    worst = max(check.max_rel_dev for check in checks)
    ok = all(check.ok for check in checks)
    print(
        f"cross-validated {len(checks)} points: max rel dev {worst:.3e} "
        f"(tol {config.tol:g}): {'OK' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _cmd_figures(config: RunConfig) -> int:
    dataset = figure_dataset(config.figure_id, config.n_max)

    def write(stream):
        if config.format == "csv":
            serialize.write_csv(serialize.FIGURE_COLUMNS, serialize.figure_rows(dataset), stream)
        else:
            serialize.write_json(serialize.figure_json_payload(dataset), stream)

    _write_output(config, write)
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "trajectory": _cmd_trajectory,
    "sweep": _cmd_sweep,
    "hump": _cmd_hump,
    "oracle": _cmd_oracle,
    "validate": _cmd_validate,
    "figures": _cmd_figures,
}


def run(config: RunConfig) -> int:
    return _HANDLERS[config.command](config)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse has already printed its message
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(config)
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
