"""The fixed command lists of the benchmark's workloads.

Every pass of a workload runs its list once, in order.  The seed only feeds
``oracle --seed`` (and, in the checker, which rows are sampled), so every
seed does the same amount of work.  Each command writes its output with
``--out`` into the pass directory under the name returned next to it.
See README.md for why each list looks as it does.
"""

from __future__ import annotations

#: A fresh process that does no model work: interpreter, import, parser.
SETUP = ["eval", "--rho", "1", "--n", "0"]

# Oracle z-scores are random: at the default --z-max 4 about one seed in a
# thousand fails by chance.  At 6 standard errors none does in practice.
_Z_MAX = "6"


def _paper_cli(seed: int) -> list[list[str]]:
    oracle_seed = str(seed % 2**63)
    return [
        ["figures", "--id", "1"],
        ["figures", "--id", "2", "--format", "json"],
        ["figures", "--id", "3"],
        ["hump", "--rho", "1/2", "--r", "5", "--n-max", "500", "--format", "csv"],
        ["hump", "--rho", "1/2", "--r", "10", "--n-max", "500"],
        ["hump", "--rho", "1/2", "--r", "20", "--n-max", "500", "--format", "csv"],
        ["hump", "--rho", "1/2", "--r", "30", "--n-max", "500"],
        ["eval", "--rho", "1/2", "--r", "30", "--n", "58", "--backend", "both", "--format", "json"],
        ["trajectory", "--rho", "1/2", "--r", "30", "--n-max", "90", "--backend", "both"],
        ["sweep", "--rho", "1/2", "--r-values", "5,10,20,30", "--n-max", "90", "--format", "json"],
        ["oracle", "--n", "16", "--rho", "9/10", "--trials", "1000", "--seed", oracle_seed,
         "--mode", "per-length-binomial", "--z-max", _Z_MAX],
        ["oracle", "--n", "12", "--rho", "9/10", "--trials", "200", "--seed", oracle_seed,
         "--mode", "per-subset", "--z-max", _Z_MAX, "--format", "json"],
        ["validate", "--rho", "1/2", "--r", "20", "--n-max", "200", "--format", "json"],
    ]


def _exact_scan(seed: int) -> list[list[str]]:
    return [
        # fails today: the exact value has more than 4300 digits
        ["eval", "--rho", "999/1000", "--n", "1500"],
        ["eval", "--rho", "3/4", "--r", "400", "--n", "1600"],
        ["eval", "--rho", "1/2", "--r", "300", "--n", "1500", "--backend", "both", "--format", "json"],
        ["eval", "--rho", "2/3", "--r", "250", "--n", "1400"],
        ["eval", "--rho", "3/4", "--r", "300", "--n", "1198", "--format", "json"],
        ["eval", "--rho", "1/3", "--r", "350", "--n", "1550"],
        ["eval", "--rho", "3/5", "--r", "200", "--n", "1250", "--backend", "both"],
        ["eval", "--rho", "9/10", "--r", "400", "--n", "1600", "--format", "json"],
        ["eval", "--rho", "1/2", "--r", "400", "--n", "1300"],
        ["eval", "--rho", "4/5", "--r", "150", "--n", "1200", "--format", "json"],
        ["hump", "--rho", "3/4", "--r", "300", "--n-max", "1600"],
        ["trajectory", "--rho", "3/4", "--r", "400", "--n-max", "1600"],
        ["sweep", "--rho", "3/4", "--r-values", "100,200", "--n-max", "1000", "--format", "json"],
    ]


def _log_scan(seed: int) -> list[list[str]]:
    return [
        ["eval", "--rho", "1/10", "--r", "400", "--n", "3000", "--backend", "logfloat"],
        ["eval", "--rho", "1", "--r", "400", "--n", "6000", "--backend", "logfloat", "--format", "json"],
        ["eval", "--rho", "1/2", "--r", "200", "--n", "5000", "--backend", "logfloat"],
        ["eval", "--rho", "3/4", "--r", "300", "--n", "4000", "--backend", "logfloat", "--format", "json"],
        ["eval", "--rho", "1/10", "--r", "100", "--n", "2500", "--backend", "logfloat"],
        ["eval", "--rho", "9/10", "--r", "400", "--n", "3500", "--backend", "logfloat"],
        ["eval", "--rho", "1/3", "--r", "250", "--n", "4500", "--backend", "logfloat", "--format", "json"],
        ["eval", "--rho", "2/3", "--r", "350", "--n", "3000", "--backend", "logfloat"],
        ["eval", "--rho", "1/5", "--r", "50", "--n", "6000", "--backend", "logfloat"],
        ["eval", "--rho", "1/10", "--r", "400", "--n", "1800", "--backend", "logfloat"],
        ["validate", "--rho", "3/4", "--r", "200", "--n-max", "600", "--format", "json"],
        # A log trajectory that falls through the subnormal doubles (about
        # 1e-308 to 1e-323) prints wrong digits there on every run (a FOUND
        # line in CHANGES.md).  The benchmark keeps one always-failing
        # operation, in exact-scan, so these scans stay above that range;
        # the evals reach far below it.
        ["trajectory", "--rho", "1", "--r", "400", "--n-max", "1800", "--backend", "logfloat",
         "--format", "json"],
        ["sweep", "--rho", "3/4", "--r-values", "100,400", "--n-max", "1000", "--backend", "logfloat"],
    ]


WORKLOADS = {"paper-cli": _paper_cli, "exact-scan": _exact_scan, "log-scan": _log_scan}


def output_format(argv: list[str]) -> str:
    """The format a command writes: its --format, else the CLI's default."""
    return dict(zip(argv[1::2], argv[2::2])).get("--format", "json" if argv[0] == "hump" else "csv")


def commands(workload: str, seed: int) -> list[tuple[list[str], str]]:
    """(argv without --out, output file name) for every command of one pass."""
    return [
        (argv, f"{i:02d}-{argv[0]}.{output_format(argv)}")
        for i, argv in enumerate(WORKLOADS[workload](seed))
    ]
