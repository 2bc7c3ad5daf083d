"""Command-line surface: argument/config parsing and dispatch.

Every command is one row of `_COMMANDS`: its --help summary and its handler,
which returns one document that `run` alone writes, to ``--out`` or stdout.
Every flag is one row of `_FLAGS`, which builds the parser and `RunConfig`,
names the keys a ``--config`` JSON file may hold, and normalizes each value.
Config values are merged below explicit flags; unknown keys are rejected,
and a key set to null counts as left out.  A rejected value raises
`DomainError`, from the library's own rule where it has one (every choice
flag's from `core._check_choice`, under the library's name for it), and
`parse_config` is the one place that puts the flag's name on its message;
only ``hump``'s rule between two flags, ``--n-max`` >= r + 1, names its own.
`main` maps every error to its exit code: 0 success, 1 a validation command
found deviations beyond its tolerance, 2 a bad input (`DomainError` or
`ResourceLimitError`), 3 I/O error.  Every random draw takes an explicit or
fixed default seed: same arguments, same bytes.

Every command imports the whole package: ``capmodel/__init__.py`` imports
`oracle` and `figures`, and `_FLAGS` reads their library defaults.  What
loads only when a command needs it is argparse, json and csv.  A command
followed by its own flags, each as ``--flag=value`` or as ``--flag value``
with no value starting with "-", is read straight from that command's rows;
any other argv (``--help``, a misspelt command, an abbreviated flag,
``--n -1``, ``--``) goes to argparse, which is imported only then, builds one
parser for every command, and writes every help and usage message.  `json`
is imported only to read a config file and `csv` only by `serialize`'s
readers, since both formats are written without either.  `trajectory` and
`sweep` write each row as the walk yields its point, and `entry_point`
(``python -m capmodel`` and the ``capmodel`` script) ends the process
without the interpreter's final sweep over live objects.
"""

from __future__ import annotations

import gc
import sys
from collections import namedtuple
from contextlib import nullcontext
from typing import TYPE_CHECKING

from . import serialize
from .core import (
    BACKENDS,
    EXACT,
    LOGFLOAT,
    ModelParams,
    UNBOUNDED,
    _check_choice,
    _check_count,
    _check_positive,
    _cross_checks,
    _points,
    checked_rho,
    cross_validate,
)
from .errors import CapModelError, DomainError
from .figures import FIGURE_IDS, figure_dataset
from .oracle import MODES, validate_expectations
from .trajectory import (
    _last,
    _sweep,
    _walk,
    find_hump_onset,
    hump_onsets_nondecreasing,
    sweep_range,
)

if TYPE_CHECKING:
    import argparse

FORMATS = ("csv", "json")
BOTH = "both"


# -- normalization ----------------------------------------------------------


def _norm_range(value):
    if value == "unbounded":
        return UNBOUNDED
    try:
        return _norm_int(value)
    except DomainError:
        raise DomainError(f"expected a nonnegative integer or 'unbounded', got {value!r}") from None


def _norm_int(value) -> int:
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            raise DomainError(f"expected an integer, got {value!r}") from None
    _check_count(value, "the value")
    return value


def _norm_float(value) -> float:
    if type(value) is int:  # read as its text would be: past the double range, inf
        value = str(value)
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise DomainError(f"expected a number, got {value!r}") from None
    _check_positive(value, "the value")
    return value


def _one_of(name: str, *choices: str):
    return lambda value: _check_choice(value, choices, name)


def _norm_r_values(value) -> tuple[int, ...]:
    if isinstance(value, str):
        parts = [part.strip() for part in value.split(",") if part.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise DomainError(f"expected a comma-separated list, got {value!r}")
    if not parts:
        raise DomainError("must be nonempty")
    return tuple(_norm_int(part) for part in parts)


def _norm_path(value) -> str:
    if not isinstance(value, str):
        raise DomainError(f"expected a path string, got {value!r}")
    return value


def _library_default(function, name: str):
    """The default of ``function``'s positional parameter ``name``."""
    code = function.__code__
    names = code.co_varnames[: code.co_argcount]
    return function.__defaults__[names.index(name) - len(names)]


def build_parser() -> argparse.ArgumentParser:
    """The parser for every command and its flags."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="capmodel",
        description="Combinatorial capability model: variety, complexity, stages, hump.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key, commands, _, default, text in _FLAGS:
            if command in commands:
                if default is not None and default is not _REQUIRED:
                    text = f"{text} (default: {default})"
                p.add_argument("--" + key.replace("_", "-"), help=text)
        p.add_argument("--config", help="JSON config file; flags override its values")
    return parser


def _read_pairs(argv) -> dict | None:
    """``vars(build_parser().parse_args(argv))`` for a command followed by its
    own flags, each as ``--flag value`` with no value starting with "-" or as
    ``--flag=value``, split at the first "=", with any value but "--" (an empty
    list to argparse 3.10 to 3.12.1); None for any other argv, which only argparse reads."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    flags = {"--" + row[0].replace("_", "-"): row[0] for row in _FLAGS if command in row[1]}
    flags["--config"] = "config"
    args = dict.fromkeys(flags.values())
    tokens = iter(argv[1:])
    for token in tokens:
        flag, joined, value = token.partition("=")
        value = value if joined else next(tokens, "-")  # a missing value is an argparse error
        if flag not in flags or value == "--" or not joined and value.startswith("-"):
            return None
        args[flags[flag]] = value
    args["command"] = command
    return args


def _read_config(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise DomainError(f"config: cannot read {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for bytes that are not UTF-8
        raise DomainError(f"config: invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(values, dict):
        raise DomainError("config: top level must be a JSON object")
    return values


def parse_config(argv=None) -> RunConfig:
    """Parse argv (and an optional JSON config file) into a RunConfig.

    Precedence: built-in defaults < config file < explicit flags.
    ``argv`` defaults to ``sys.argv[1:]``.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read_pairs(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config")
    rows = [row for row in _FLAGS if command in row[1]]

    merged = {} if config_path is None else _read_config(config_path)
    keys = {row[0] for row in rows}
    for key in merged:
        if key not in keys:
            raise DomainError(f"config: unknown key {key!r} for command {command!r}")
    merged.update((key, value) for key, value in args.items() if value is not None)

    kwargs: dict = {"command": command}
    for key, _, normalize, default, _ in rows:
        value = default if merged.get(key) is None else merged[key]
        try:
            if value is _REQUIRED:
                raise DomainError("is required")
            if value is not None:
                kwargs[key] = normalize(value)
        except DomainError as exc:
            raise DomainError(f"{key.replace('_', '-')}: {exc}") from exc
    return RunConfig(**kwargs)


# -- dispatch ----------------------------------------------------------------


def _cmd_points(config: RunConfig):
    """``eval`` (the point at n) or ``trajectory`` (n = 0..n-max), on one backend or both,
    where the checked log walk gives the float cells and the landmarks, and an
    exact stream staged from its onset the exact cells and the stages."""
    evaluates = config.command == "eval"
    if evaluates:
        first, last, name = config.n, config.n, "n"
    else:
        first, last, name = 0, _last(config.r, config.n_max), "n_max"
    both = config.backend == BOTH
    params = ModelParams(config.rho, config.r, LOGFLOAT if both else config.backend)
    walk = _walk(params, first, last, name)
    # a trajectory streams; an eval computes its point first, the log one before
    # the exact one, so its errors precede any output and any exact work
    collect = list if evaluates else iter
    streams = (collect(walk.points),)
    if both:
        exact = _points(params._replace(backend=EXACT), first, last, walk.hump_onset_at)
        streams = (collect(exact), *streams)
    rows = serialize.trajectory_rows(*streams)
    landmarks = None if evaluates else walk
    return rows, serialize.trajectory_json_payload(params, rows, landmarks, config.backend), None, 0


def _cmd_sweep(config: RunConfig):
    trajectories = _sweep(config.rho, list(config.r_values), config.n_max, config.backend)
    nondecreasing = hump_onsets_nondecreasing(trajectories)
    payload = serialize.sweep_json_payload(config.rho, trajectories, nondecreasing)
    message = f"hump onsets nondecreasing in r: {str(nondecreasing).lower()}"
    return serialize.sweep_rows(trajectories), payload, message, 0


def _cmd_hump(config: RunConfig):
    if config.n_max < config.r + 1:
        raise DomainError(f"n-max: must be at least r + 1 = {config.r + 1}, got {config.n_max}")
    onset = find_hump_onset(config.r, config.rho, config.n_max)
    row = serialize.hump_payload(config.rho, config.r, config.n_max, onset)
    within = f"none within n <= {config.n_max}" if onset is None else onset
    return serialize.hump_rows(row), row, f"hump onset: {within}", 0


def _cmd_oracle(config: RunConfig):
    report = validate_expectations(
        config.n, config.rho, config.r, config.trials, config.seed, config.mode
    )
    payload = serialize.oracle_json_payload(report)
    ok = report.within(config.z_max)
    message = (f"max |z| = {report.max_abs_zscore:.3f} over {config.trials} trials "
               f"(threshold {config.z_max}): {'OK' if ok else 'FAIL'}")
    return payload["stats"], payload, message, 0 if ok else 1


def _cmd_validate(config: RunConfig):
    checks = _cross_checks(config.n_max, config.rho, config.r, config.tol)
    ok = all(check.ok for check in checks)
    payload = serialize.validate_json_payload(checks, config.tol, ok)
    worst = max(check.max_rel_dev for check in checks)
    message = (f"cross-validated {len(checks)} points: max rel dev {worst:.3e} "
               f"(tol {config.tol:g}): {'OK' if ok else 'FAIL'}")
    return payload["checks"], payload, message, 0 if ok else 1


def _cmd_figures(config: RunConfig):
    dataset = figure_dataset(config.id, config.n_max)
    return serialize.figure_rows(dataset), serialize.figure_json_payload(dataset), None, 0


#: Every command: (help summary, handler).  A handler maps a `RunConfig` to
#: ``(table, payload, message, code)``: the `serialize.Table` CSV writes, the
#: JSON payload over the same rows, the line printed after the output (or
#: None) and the exit code.  Both are built before `run` picks the format, so
#: their rows are lazy or shared: only the format written renders its cells.
_COMMANDS = {
    "eval": ("evaluate all closed forms at one (n, r, rho)", _cmd_points),
    "trajectory": ("evaluate n = 0..n-max and tag stages", _cmd_points),
    "sweep": ("one trajectory per r value", _cmd_sweep),
    "hump": ("first n where variety declines at the next step", _cmd_hump),
    "oracle": ("seeded sampling vs closed-form expectations", _cmd_oracle),
    "validate": ("exact vs log backend over n = 0..n-max", _cmd_validate),
    "figures": ("emit the dataset behind figure 1, 2, or 3", _cmd_figures),
}
_REQUIRED = object()

#: Every flag: (config key, commands, normalizer, default, help).  A key whose
#: rule differs by command has one row per rule.  The flag is the key with
#: dashes, and its help gains "(default: ...)" unless the default is None
#: (worked out later) or _REQUIRED.
_FLAGS = (
    ("rho", ("eval", "trajectory", "sweep", "hump", "oracle", "validate"), checked_rho, _REQUIRED,
     "viability probability in (0,1], e.g. 0.5 or 1/2"),
    ("r", ("eval", "trajectory", "oracle", "validate"), _norm_range, "unbounded",
     "product range: nonnegative integer or 'unbounded'"),
    ("r", ("hump",), _norm_int, _REQUIRED, "bounded product range"),
    ("n", ("eval", "oracle"), _norm_int, _REQUIRED, "number of capabilities"),
    ("r_values", ("sweep",), _norm_r_values, _REQUIRED, "comma-separated ranges, e.g. 5,10,20,30"),
    ("id", ("figures",), lambda value: _check_choice(_norm_int(value), FIGURE_IDS, "figure_id"),
     _REQUIRED, "figure id: 1, 2, or 3"),
    ("n_max", ("trajectory",), _norm_int, None, "last n (default: max(3r, 50))"),
    ("n_max", ("sweep",), _norm_int, None, "last n (default: max over r of max(3r, 50))"),
    ("n_max", ("hump",), _norm_int, 500, "scan bound"),
    ("n_max", ("validate",), _norm_int, 100, "last n"),
    ("n_max", ("figures",), _norm_int, None, "override the figure's n axis"),
    ("backend", ("eval", "trajectory"), _one_of("backend", *BACKENDS, BOTH),
     _library_default(ModelParams.__new__, "backend"), "exact | logfloat | both"),
    ("backend", ("sweep",), _one_of("backend", *BACKENDS), _library_default(sweep_range, "backend"),
     "exact | logfloat"),
    ("trials", ("oracle",), _norm_int,
     _library_default(validate_expectations, "trials"), "number of sampled books"),
    ("seed", ("oracle",), _norm_int, _library_default(validate_expectations, "base_seed"),
     "base seed"),
    ("mode", ("oracle",), _one_of("mode", *MODES), _library_default(validate_expectations, "mode"),
     "per-subset | per-length-binomial"),
    ("z_max", ("oracle",), _norm_float, 4.0, "|z| beyond this exits 1"),
    ("tol", ("validate",), _norm_float, _library_default(cross_validate, "tol"),
     "relative tolerance; beyond it exits 1"),
    ("out", tuple(_COMMANDS), _norm_path, None, "output path (default: stdout)"),
    ("format", ("hump",), _one_of("format", *FORMATS), "json", "output format: csv | json"),
    ("format", ("eval", "trajectory", "sweep", "oracle", "validate", "figures"),
     _one_of("format", *FORMATS), "csv", "output format: csv | json"),
)

#: The command, then each config key in table order; None where a command sets none.
_KEYS = tuple(dict.fromkeys(row[0] for row in _FLAGS))
RunConfig = namedtuple("RunConfig", ("command", *_KEYS), defaults=(None,) * len(_KEYS))


def run(config: RunConfig) -> int:
    table, payload, message, code = _COMMANDS[config.command][1](config)
    path = config.out
    to_file = path is not None and path != "-"
    target = open(path, "w", encoding="utf-8", newline="") if to_file else nullcontext(sys.stdout)
    with target as stream:
        if config.format == "csv":
            serialize.write_csv(table, stream)
        else:
            serialize.write_json(payload, stream)
    if to_file:
        print(f"wrote {path}")
    if message is not None:
        print(message)
    return code


def main(argv=None) -> int:
    try:
        return run(parse_config(argv))
    except SystemExit as exc:
        # argparse has already printed its message
        return exc.code if isinstance(exc.code, int) else 2
    except CapModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    """Run `main` on ``sys.argv`` and exit the process with its code.

    `gc.freeze` first moves every live object to the permanent generation,
    which the interpreter's final collection does not visit.  Nothing the
    process still needs depends on that collection: ``--out`` is already
    closed, and exit still flushes stdout and stderr and runs `atexit`.
    `main` itself, the in-process API, never freezes.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
