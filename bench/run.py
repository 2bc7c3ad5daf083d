#!/usr/bin/env python3
"""Benchmark of the capmodel CLI: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload paper-cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; it uses the sources in ``src/`` next to this directory and
writes only under ``.bench_work/``.  One client runs the workload's commands
one after another, each ``python -m capmodel ...`` as a fresh process, and
repeats whole passes until ``--seconds`` have gone by.  Every output is then
checked against an independent reference (check.py, reference.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` instead runs the
same commands in this process through ``capmodel.cli.main`` with every
public function wrapped (spans.py) and prints the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 2  # per pass
IMPORT_PROBES = 5
COMMAND_TIMEOUT_S = 100

IMPORT_PROBE = """\
import sys, time
before = len(sys.modules)
start = time.perf_counter()
import capmodel
print(time.perf_counter() - start, len(sys.modules) - before)
"""

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cmd_p50_s": "s", "peak_rss_mib": "MiB"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("calls_per_point"):
        return "calls/point"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # the default digit limit is part of what runs
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users run from cached bytecode
    return env


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def spawn(args: list[str], log: Path, env: dict) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, peak RSS in KiB, exit code)."""
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=subprocess.STDOUT, env=env, cwd=log.parent
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss, proc.returncode


def cli_spawn(argv: list[str], log: Path, env: dict) -> tuple[float, int, int]:
    return spawn(["-m", "capmodel", *argv], log, env)


class Outputs:
    """Checks the first pass's outputs and that later passes repeat them byte for byte."""

    def __init__(self, seed: int):
        self.checker = check.Checker(seed)
        self.first: dict[str, tuple[list[str], Path, str | None]] = {}
        self.problems: list[str] = []

    def record(self, argv: list[str], path: Path, ok: bool) -> None:
        if not ok:
            return
        digest = _digest(path)
        if path.name not in self.first:
            self.first[path.name] = (argv, path, digest)
        elif self.first[path.name][2] != digest:
            self.problems.append(f"{' '.join(argv)}: output differs from the first pass")

    def verify(self) -> list[str]:
        for argv, path, _ in self.first.values():
            self.problems += self.checker.check([*argv, "--out", str(path)], str(path))
        return self.problems


# -- untraced: end-to-end metrics ----------------------------------------------


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    work = _fresh(WORK / workload)
    env = _child_env()
    outputs = Outputs(seed)

    setup_out = work / "setup.csv"
    setup_times = []

    def set_up() -> float:
        elapsed, _, code = cli_spawn([*workloads.SETUP, "--out", str(setup_out)], work / "setup.log", env)
        if code != 0:
            raise RuntimeError(f"set-up command exited {code}; see {work / 'setup.log'}")
        return elapsed

    set_up()  # writes the bytecode caches; not timed
    outputs.record(workloads.SETUP, setup_out, True)

    commands = workloads.commands(workload, seed)
    passes, command_times, peaks, failed = [], [], [], 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        # set-up is sampled before every pass, so its median spans the whole run
        setup_times += [set_up() for _ in range(SETUP_PROBES)]
        pass_dir = _fresh(work / f"pass-{min(len(passes), 1)}")
        pass_start = perf_counter()
        peak, done = 0, []
        for argv, name in commands:
            out = pass_dir / name
            elapsed, rss, code = cli_spawn([*argv, "--out", str(out)], out.with_suffix(".log"), env)
            command_times.append(elapsed)
            peak = max(peak, rss)
            failed += code != 0
            done.append((argv, out, code == 0))
        passes.append(perf_counter() - pass_start)
        peaks.append(peak / 1024)
        for argv, out, ok in done:
            outputs.record(argv, out, ok)

    problems = outputs.verify()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(passes),
        "cmd_p50_s": statistics.median(command_times),
        "peak_rss_mib": statistics.median(peaks),
    }
    return {
        "problems": problems,
        "attempted": len(passes) * len(commands),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "notes": f"{len(passes)} passes of {len(commands)} commands ({', '.join(f'{p:.2f}' for p in passes)} s)",
    }


# -- traced: per-layer metrics --------------------------------------------------


def _import_probes(work: Path, env: dict) -> dict:
    times, modules, errors = [], [], 0
    log = work / "import.log"
    for i in range(IMPORT_PROBES + 1):
        _, _, code = spawn(["-c", IMPORT_PROBE], log, env)
        if code != 0:
            errors += 1
            continue
        elapsed, count = log.read_text().split()
        if i:
            times.append(float(elapsed))
            modules.append(int(count))
    return {
        "import.capmodel_s": statistics.median(times) if times else 0.0,
        "import.modules": statistics.median(modules) if modules else 0,
        "import.errors": errors,
    }


def _capmodel_modules():
    sys.path.insert(0, str(SRC))
    import capmodel.cli  # noqa: F401  (loads every submodule)

    return [m for n, m in sorted(sys.modules.items()) if n == "capmodel" or n.startswith("capmodel.")]


def _in_process_pass(commands, pass_dir: Path, caches, recorder=None) -> list[tuple]:
    import capmodel.cli as cli

    done = []
    for i, (argv, name) in enumerate(commands):
        for cache in caches:
            cache.cache_clear()  # each CLI process starts with empty caches
        if recorder is not None:
            recorder.request = i
        out = pass_dir / name
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = cli.main([*argv, "--out", str(out)])
            except Exception:  # a traceback: the process would exit 1
                code = 1
        done.append((argv, out, code == 0))
    return done


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    import spans

    work = _fresh(WORK / workload)
    metrics = _import_probes(work, _child_env())
    modules = _capmodel_modules()
    caches = {id(v): v for m in modules for v in vars(m).values() if callable(getattr(v, "cache_clear", None))}
    caches = list(caches.values())
    commands = workloads.commands(workload, seed)
    outputs = Outputs(seed)

    start = perf_counter()
    untraced_dir = _fresh(work / "untraced")
    for argv, out, ok in _in_process_pass(commands, untraced_dir, caches):
        outputs.record(argv, out, ok)
    untraced_s = perf_counter() - start

    recorder = spans.Recorder()
    recorder.install(modules)
    summaries, traced, failed, attempted = [], [], 0, 0
    while not summaries or perf_counter() - start < seconds:
        recorder.reset()
        pass_dir = _fresh(work / "traced")
        pass_start = perf_counter()
        done = _in_process_pass(commands, pass_dir, caches, recorder)
        traced.append(perf_counter() - pass_start)
        summary = recorder.summary()
        summary["serialize.bytes"] = sum(out.stat().st_size for _, out, ok in done if ok)
        summaries.append(summary)
        attempted += len(done)
        failed += sum(not ok for _, _, ok in done)
        for argv, out, ok in done:
            outputs.record(argv, out, ok)
    recorder.write(work / "spans.jsonl")

    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                print(f"warning: {key} differs between traced passes: {values}", file=sys.stderr)
            metrics[key] = values[0]
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.traced_pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - untraced_s
    return {
        "problems": outputs.verify(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        "notes": f"1 untraced and {len(traced)} traced in-process passes of {len(commands)} commands",
    }


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running command is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "capmodel" / "__init__.py").is_file():
        print(f"error: capmodel sources not found under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runner = run_traced if args.trace else run_end_to_end
    results = {}
    for name in names:
        results[name] = result = runner(name, args.seed, args.seconds)
        print(f"{name}: {result['notes']}, {result['failed']}/{result['attempted']} failed", file=sys.stderr)
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:<22.6g} {m['unit']}", file=sys.stderr)
        for problem in result["problems"]:
            print(f"  WRONG: {problem}", file=sys.stderr)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    final = {
        "correct": not any(r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    (WORK / "result.json").write_text(json.dumps(final) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
