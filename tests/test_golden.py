"""Golden CLI outputs: every command below must reproduce its recorded bytes.

``tests/golden/manifest.json`` holds, per command, its arguments, the name
of its ``--out`` file under ``tests/golden/`` (or null), its standard output
and standard error (with the output path written as ``{out}``) and its exit
code.  `COMMANDS` run with ``--out`` appended; `BARE_COMMANDS` run as given
and write no file.  Help text wraps at the terminal width, so every command
runs with ``COLUMNS=80``.  Refactors must keep all of them byte for byte; an
intended change of output is re-recorded with

    PYTHONPATH=src python tests/test_golden.py

and every changed file is named in CHANGES.md.
"""

import csv
import io
import json
import os
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from capmodel.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
BUDGET_S = 2.0

COMMANDS = [
    # the C10 determinism list
    ["eval", "--rho", "0.5", "--r", "30", "--n", "40", "--backend", "both"],
    ["trajectory", "--rho", "0.5", "--r", "6", "--n-max", "30"],
    ["trajectory", "--rho", "0.5", "--r", "6", "--n-max", "30", "--format", "json"],
    ["sweep", "--rho", "0.5", "--r-values", "2,4,8", "--n-max", "20"],
    ["hump", "--rho", "0.5", "--r", "5", "--format", "json"],
    ["oracle", "--n", "10", "--rho", "0.5", "--trials", "100", "--seed", "7"],
    ["validate", "--rho", "0.5", "--r", "10", "--n-max", "50"],
    ["figures", "--id", "2"],
    # every command in both formats, every backend
    ["eval", "--rho", "0.5", "--r", "30", "--n", "40", "--backend", "both", "--format", "json"],
    ["eval", "--rho", "3/4", "--r", "20", "--n", "70"],
    ["eval", "--rho", "3/4", "--r", "20", "--n", "70", "--backend", "logfloat"],
    ["eval", "--rho", "2/3", "--n", "25", "--backend", "logfloat", "--format", "json"],
    ["eval", "--rho", "1/10", "--r", "400", "--n", "3000", "--backend", "logfloat"],
    ["eval", "--rho", "1/2", "--r", "7", "--n", "7", "--format", "json"],
    ["eval", "--rho", "1", "--n", "0"],
    ["trajectory", "--rho", "1/2", "--r", "100", "--n-max", "300"],
    ["trajectory", "--rho", "1/2", "--r", "100", "--n-max", "300", "--backend", "logfloat"],
    ["trajectory", "--rho", "3/4", "--r", "12", "--n-max", "60", "--backend", "both", "--format", "json"],
    ["trajectory", "--rho", "3/4", "--r", "12", "--n-max", "60", "--backend", "logfloat", "--format", "json"],
    ["trajectory", "--rho", "1", "--n-max", "20", "--format", "json"],
    ["trajectory", "--rho", "1/3", "--r", "0", "--n-max", "12", "--backend", "both"],
    # a log trajectory that falls through the subnormal doubles and below
    ["trajectory", "--rho", "1/10", "--r", "5", "--n-max", "340", "--backend", "logfloat"],
    ["sweep", "--rho", "3/4", "--r-values", "3,6,12", "--n-max", "40", "--format", "json"],
    ["sweep", "--rho", "1/2", "--r-values", "9,4", "--n-max", "60", "--backend", "logfloat"],
    ["sweep", "--rho", "1", "--r-values", "2,5", "--n-max", "15", "--backend", "logfloat", "--format", "json"],
    ["hump", "--rho", "1/2", "--r", "30", "--format", "csv"],
    ["hump", "--rho", "1", "--r", "4", "--n-max", "100"],
    ["hump", "--rho", "9/10", "--r", "0", "--n-max", "1", "--format", "csv"],
    ["oracle", "--n", "8", "--rho", "3/4", "--r", "5", "--trials", "60", "--seed", "3",
     "--mode", "per-subset", "--format", "json"],
    ["oracle", "--n", "9", "--rho", "1/2", "--trials", "50", "--seed", "1", "--z-max", "0.01"],
    ["validate", "--rho", "3/4", "--r", "20", "--n-max", "80", "--format", "json"],
    ["validate", "--rho", "1/2", "--r", "10", "--n-max", "30", "--tol", "1e-300"],
    ["figures", "--id", "1"],
    ["figures", "--id", "1", "--format", "json"],
    ["figures", "--id", "2", "--format", "json"],
    ["figures", "--id", "3"],
    ["figures", "--id", "3", "--format", "json"],
    ["figures", "--id", "3", "--n-max", "40"],
    # a long validation run, and a point just past the hump, where delta/variety is smallest
    ["validate", "--rho", "3/4", "--r", "200", "--n-max", "600", "--format", "json"],
    ["eval", "--rho", "3/4", "--r", "300", "--n", "1198", "--backend", "both"],
    # a wide-range onset and a log point just before it, both far past small n
    ["hump", "--rho", "1/2", "--r", "20000", "--n-max", "50000"],
    ["eval", "--rho", "1/2", "--r", "50000", "--n", "99997", "--backend", "logfloat"],
]

# Paths the list above does not reach: usage and I/O errors, output to
# stdout, and help.  "{golden}" stands for tests/golden/ and "{tmp}" for an
# empty scratch directory.
BARE_COMMANDS = [
    ["eval", "--rho", "3/2", "--r", "1", "--n", "3"],
    ["trajectory", "--config", "{golden}/config-unknown-key.json"],
    ["trajectory", "--config", "{golden}/config-float-rho.json"],
    ["trajectory", "--rho", "1", "--n-max", "2", "--out", "{tmp}/missing/x.csv"],
    ["hump", "--rho", "1/2", "--r", "30"],
    ["--help"],
    ["eval", "--help"],
    ["trajectory", "--help"],
    ["sweep", "--help"],
    ["hump", "--help"],
    ["oracle", "--help"],
    ["validate", "--help"],
    ["figures", "--help"],
    # a validate whose log window sums pass 2**53: refused before any point is walked
    ["validate", "--rho", "1/2", "--r", "10", "--n-max", "9007199254740993"],
]


def _extension(args):
    fmt = dict(zip(args[1::2], args[2::2])).get("--format")
    return fmt or ("json" if args[0] == "hump" else "csv")


def _name(index, args):
    return f"{index:02d}-{args[0]}.{_extension(args)}"


def _run(args, paths: dict[str, Path]) -> tuple[int, str, str]:
    """Run ``args`` in-process, with ``{name}`` placeholders set from ``paths``."""
    for name, path in paths.items():
        args = [arg.replace(f"{{{name}}}", str(path)) for arg in args]
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(args)
    texts = [stdout.getvalue(), stderr.getvalue()]
    for name, path in paths.items():
        texts = [text.replace(str(path), f"{{{name}}}") for text in texts]
    return code, *texts


def _run_entry(args, file, out_dir: Path, tmp: Path) -> tuple[int, str, str]:
    """Run one entry: a listed command writes ``file`` under ``out_dir``."""
    if file is None:
        return _run(args, {"golden": GOLDEN, "tmp": tmp})
    return _run([*args, "--out", str(out_dir / file)], {"out": out_dir / file})


def write_golden() -> None:
    """Record every command's output file, stdout, stderr and exit code."""
    GOLDEN.mkdir(exist_ok=True)
    entries = []
    listed = [(_name(index, args), args) for index, args in enumerate(COMMANDS)]
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in [*listed, *((None, args) for args in BARE_COMMANDS)]:
            code, stdout, stderr = _run_entry(args, name, GOLDEN, Path(tmp))
            entries.append(
                {"args": args, "file": name, "stdout": stdout, "stderr": stderr, "exit": code}
            )
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


def _entries():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_the_command_list():
    assert [entry["args"] for entry in _entries()] == COMMANDS + BARE_COMMANDS


@pytest.mark.parametrize("digits", [None, 640], ids=["default", "640"])
def test_golden_outputs_reproduce_byte_for_byte(tmp_path, digits):
    # at CPython's smallest int-to-str limit, exact cells of up to 901 digits
    # (39-eval.csv) go through serialize's split path and must not change
    limit = sys.get_int_max_str_digits()
    started = time.perf_counter()
    try:
        sys.set_int_max_str_digits(digits or limit)
        for entry in _entries():
            file = entry["file"]
            code, stdout, stderr = _run_entry(entry["args"], file, tmp_path, tmp_path)
            recorded = (entry["exit"], entry["stdout"], entry["stderr"])
            assert (code, stdout, stderr) == recorded, entry["args"]
            if file is not None:
                golden = (GOLDEN / file).read_bytes()
                assert (tmp_path / file).read_bytes() == golden, entry["args"]
    finally:
        sys.set_int_max_str_digits(limit)
    elapsed = time.perf_counter() - started
    assert elapsed < BUDGET_S, f"golden commands took {elapsed:.2f}s, budget {BUDGET_S}s"


def _series(path: Path) -> list[list[dict]]:
    """The points of each series in a trajectory, sweep or figure golden."""
    kind = path.stem.split("-")[1]
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        parts = {"trajectory": [payload], "sweep": payload.get("trajectories"),
                 "figures": payload.get("series")}[kind]
        return [part["points"] for part in parts]
    groups: dict = {}
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault((row.get("r"), row.get("figure"), row.get("series")), []).append(row)
    return list(groups.values())


def test_complexity_rises_along_every_golden_series():
    # the paper's claim that average length keeps rising while variety humps
    files = [p for p in sorted(GOLDEN.glob("*-*.*"))
             if p.stem.split("-")[1] in ("trajectory", "sweep", "figures")]
    for path in files:
        steps = 0
        for points in _series(path):
            for a, b in zip(points, points[1:]):
                assert int(b["n"]) == int(a["n"]) + 1, (path.name, a["n"])
                for column, read in (("avg_length_exact", Fraction), ("avg_length_float", float)):
                    if a[column] not in ("", None):
                        assert read(b[column]) > read(a[column]), (path.name, column, a["n"])
                        steps += 1
        assert steps, path.name


if __name__ == "__main__":
    write_golden()
