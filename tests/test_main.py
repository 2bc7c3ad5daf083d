"""``python -m capmodel`` as a fresh process: exit codes, bytes, and imports.

Every other CLI test calls ``main()`` in-process, where the test session has
long since imported `dataclasses`, `inspect`, `json` and `csv`.  Only a new
interpreter shows that importing the package, and every command, ``oracle``'s
sampling included, leaves numpy unloaded (the package has no runtime
dependency) and loads neither `dataclasses` nor `inspect`, which the
NamedTuple records and the flag table do without, and
that a command loads `json` only for a config file and `csv` not at all, whatever
its output format (the writers import neither), and, given
as ``--flag value`` pairs or ``--flag=value``, neither `argparse` nor the
`gettext` and `locale` it brings.  A ``.pth`` file in site-packages may
import modules before ``-c`` runs, so the guard compares with the modules
present before the import.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from capmodel import cli
from capmodel.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# After an import or a command: numpy never entered ``sys.modules``, and
# neither `dataclasses`, `inspect` nor a module in ``unused`` was loaded
# since ``before``.
GUARD = """
assert "numpy" not in sys.modules, "numpy was imported"
loaded = ({"dataclasses", "inspect"} | unused) & (set(sys.modules) - before)
assert not loaded, f"{sorted(loaded)} were imported"
"""


def _probe(unused):
    """Runs ``capmodel`` with the arguments after ``-c`` as ``__main__``,
    applies the guard, and exits with the command's code."""
    return f"""
import runpy, sys
unused = {set(unused)!r}
before = set(sys.modules)
sys.argv[0] = "capmodel"
try:
    runpy.run_module("capmodel", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
""" + GUARD + "sys.exit(code)\n"

ORACLE = ["oracle", "--n", "10", "--rho", "0.5", "--trials", "100", "--seed", "7"]
COMMANDS = [
    ["eval", "--rho", "1/2", "--r", "30", "--n", "58", "--backend", "both"],
    ["trajectory", "--rho", "1/2", "--r", "6", "--n-max", "30"],
    ["sweep", "--rho", "1/2", "--r-values", "2,4", "--n-max", "15"],
    ["hump", "--rho", "1/2", "--r", "30"],
    ["validate", "--rho", "1/2", "--r", "10", "--n-max", "40"],
    ["figures", "--id", "3"],
    ORACLE,
    pytest.param([*ORACLE, "--mode", "per-subset"], id="oracle-per-subset"),
    pytest.param(
        ["eval", "--rho", "1/2", "--r", "30", "--n", "58", "--backend", "both", "--format", "json"],
        id="eval-json",
    ),
]


def _python(*args, cwd):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_import_leaves_numpy_unloaded(tmp_path):
    script = 'import sys\nunused = {"json", "csv"}\nbefore = set(sys.modules)\nimport capmodel\n'
    script += GUARD
    result = _python("-c", script, cwd=tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("args", COMMANDS, ids=lambda args: args[0])
def test_command_runs_without_numpy(args, tmp_path):
    # CSV or JSON, each table is written without `csv` or `json`; plain pairs
    # are read without argparse
    unused = {"csv", "json", "argparse", "gettext", "locale"}
    result = _python("-c", _probe(unused), *args, "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out").stat().st_size > 0


@pytest.mark.parametrize("n", ["-1", "x", "65"])
def test_bad_oracle_n_exits_2_without_numpy(n, tmp_path):
    # -1 and x fail in parsing, 65 in the oracle's own size check
    probe = _probe({"json", "csv"})
    result = _python("-c", probe, "oracle", "--n", n, "--rho", "0.5", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:")


def test_oracle_process_matches_in_process(tmp_path, capsys):
    result = _python("-m", "capmodel", *ORACLE, "--out", "process.csv", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert main([*ORACLE, "--out", str(tmp_path / "inline.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()


@pytest.mark.parametrize(
    "args, code",
    [
        (["validate", "--rho", "1/2", "--r", "10", "--n-max", "40", "--tol", "1e-300"], 1),
        (["eval", "--rho", "3/2", "--n", "5"], 2),
        (["hump", "--rho", "1/2", "--r", "30", "--out", "{tmp}/missing/out.json"], 3),
    ],
    ids=["deviation", "usage", "io"],
)
def test_process_exit_matches_in_process(args, code, tmp_path, capsys):
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    result = _python("-m", "capmodel", *args, cwd=tmp_path)
    assert main(args) == code
    captured = capsys.readouterr()
    assert (result.returncode, result.stdout, result.stderr) == (code, captured.out, captured.err)


def test_only_the_process_entry_freezes(monkeypatch, capsys):
    frozen = []
    monkeypatch.setattr(cli, "gc", SimpleNamespace(freeze=lambda: frozen.append(True)))
    args = ["hump", "--rho", "1/2", "--r", "30"]
    assert main(args) == 0 and frozen == []
    monkeypatch.setattr(sys, "argv", ["capmodel", *args])
    with pytest.raises(SystemExit) as exc:
        cli.entry_point()
    assert exc.value.code == 0 and frozen == [True]
    assert capsys.readouterr().out.endswith("hump onset: 58\n")


def test_installed_script_runs_what_python_m_runs():
    # a regex, not tomllib, so that this also runs on 3.10
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^capmodel = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE)
    assert script, "no capmodel line in [project.scripts]"
    tree = ast.parse((SRC / "capmodel" / "__main__.py").read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    imported = {
        f"capmodel.{node.module}:{alias.name}"
        for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    called = [n.func.id for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert called == [script[2]]
    assert f"{script[1]}:{script[2]}" in imported


def test_cli_module_runs_as_main(tmp_path):
    args = ["hump", "--rho", "1/2", "--r", "30"]
    package = _python("-m", "capmodel", *args, cwd=tmp_path)
    module = _python("-m", "capmodel.cli", *args, cwd=tmp_path)
    assert (module.returncode, module.stdout) == (package.returncode, package.stdout)
    assert package.returncode == 0 and "hump onset: 58" in package.stdout


def test_argparse_syntax_runs_in_a_fresh_process(tmp_path):
    probe = _probe({"argparse", "gettext", "locale"})
    result = _python("-c", probe, "hump", "--rho=1/2", "--r=30", cwd=tmp_path)
    assert result.returncode == 0 and "hump onset: 58" in result.stdout


def test_package_does_not_import_decimal():
    # `fractions` itself imports `decimal` on 3.10-3.13, so the guard above
    # cannot keep it out of sys.modules; no capmodel module may need it
    for path in sorted((SRC / "capmodel").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
        assert "decimal" not in imported, path.name
