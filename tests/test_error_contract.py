"""Property tests of the error contract, for the CLI and for the library.

CLI: any value a flag's normalizer must reject, given as a config key or as
a flag, exits 2 with one ``error:`` line and nothing on stdout, and in
process `parse_config` then `run` raise `DomainError` for it.  The flags
are drawn from ``cli._FLAGS``, so a row added later is covered as well.  A
value that a library rule rejects reads, after the flag's name, as the
library words it.

Library: every public function given a bad scalar argument either returns
or raises `DomainError` / `ResourceLimitError`, never anything else.
"""

import inspect
import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capmodel as cm
from capmodel import DomainError, ModelParams, ResourceLimitError
from capmodel.cli import _FLAGS, _REQUIRED, main, parse_config, run

# -- CLI ----------------------------------------------------------------------

#: A small valid value for each key some command requires.
REQUIRED_VALUES = {"rho": "1/2", "r": 2, "n": 3, "r_values": "1,2", "id": 1}
#: Keys that take any positive finite float, and keys that take any string.
FLOAT_KEYS = {"tol", "z_max"}
STRING_KEYS = {"out"}

FLAG_USES = [(key, command) for key, commands, *_ in _FLAGS for command in commands]


def _bad_values(key: str):
    """Values the normalizer of ``key`` must reject, whatever the command."""
    bad = [
        st.booleans(),
        st.integers(max_value=-1),
        st.floats(max_value=-1e-3),
        st.just(math.nan),
        st.just(math.inf),
        st.lists(st.integers(max_value=-1), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    ]
    if key not in FLOAT_KEYS:
        bad.append(st.floats(min_value=1e-3, max_value=1e6))
    if key not in STRING_KEYS:
        # no number, choice or 'unbounded' is spelled with these letters
        bad.append(st.text(alphabet="xyz~", min_size=1, max_size=5))
    return st.one_of(bad)


BAD_VALUES = {key: _bad_values(key) for key, *_ in _FLAGS}


def _run(args) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(args)
    return code, stdout.getvalue(), stderr.getvalue()


def _assert_usage_error(args) -> str:
    """Check the exit code, the output and the error type; return stderr."""
    code, stdout, stderr = _run(args)
    assert code == 2, args
    assert stdout == "", args
    assert "Traceback" not in stderr, args
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), (args, stderr)
    with pytest.raises(DomainError), redirect_stdout(io.StringIO()):
        run(parse_config(args))
    return stderr


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_flag_rejects_bad_values_with_exit_two(data):
    key, command = data.draw(st.sampled_from(FLAG_USES), label="flag")
    value = data.draw(BAD_VALUES[key], label="value")
    required = {
        row_key: REQUIRED_VALUES[row_key]
        for row_key, commands, _, default, _ in _FLAGS
        if command in commands and default is _REQUIRED and row_key != key
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**required, key: value}, fh)
        args = [command, "--config", path]
        _assert_usage_error(args)
    if isinstance(value, str):
        flags = [item for k, v in required.items() for item in ("--" + k.replace("_", "-"), str(v))]
        args = [command, "--" + key.replace("_", "-"), value, *flags]
        _assert_usage_error(args)


@pytest.mark.parametrize("trials", ["0", "29"])
def test_oracle_trials_minimum_is_checked_before_any_output(tmp_path, trials):
    out = tmp_path / "x.csv"
    args = ["oracle", "--rho", "1/2", "--n", "3", "--trials", trials, "--out", str(out)]
    assert "trials" in _assert_usage_error(args)
    assert not out.exists()


@pytest.mark.parametrize(
    "args, config, key, library",
    [
        (["eval", "--n", "3"], {"rho": 0.5}, "rho", lambda: cm.checked_rho(0.5)),
        (["figures", "--id", "4"], None, "id", lambda: cm.figure_dataset(4)),
        (
            ["oracle", "--n", "3", "--rho", "1/2", "--mode", "bogus"], None, "mode",
            lambda: cm.validate_expectations(3, "1/2", mode="bogus"),
        ),
        (
            ["sweep", "--rho", "1/2", "--r-values", "2", "--backend", "both"], None, "backend",
            lambda: cm.sweep_range("1/2", [2], backend="both"),
        ),
    ],
)
def test_a_rejected_value_reads_as_the_library_words_it(tmp_path, args, config, key, library):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        args = [*args, "--config", str(path)]
    with pytest.raises(DomainError) as raised:
        library()
    assert _assert_usage_error(args) == f"error: {key}: {raised.value}\n"


# -- library --------------------------------------------------------------------

#: Scalar and record arguments drawn bad; the rest get a small valid value.
SCALARS = {
    "n", "r", "rho", "n_max", "s", "tol", "trials", "base_seed", "index",
    "r_values", "figure_id", "mode", "backend", "params", "trajectories", "sample",
}
VALID = {
    "n": 4, "r": 2, "rho": "1/2", "n_max": 8, "s": 1, "tol": 1e-9, "trials": 30,
    "base_seed": 1, "index": 0, "r_values": [1, 2], "figure_id": 1,
    "mode": cm.PER_LENGTH_BINOMIAL, "backend": cm.EXACT, "seed": 1, "value": "1/2",
    "keep_masks": False, "params": ModelParams("1/2", 2), "trajectories": [],
    "sample": cm.sample_recipe_book(4, "1/2", 1),
}
FUNCTIONS = [
    getattr(cm, name) for name in cm.__all__ if inspect.isfunction(getattr(cm, name))
] + [ModelParams]
TARGETS = [
    (function, name)
    for function in FUNCTIONS
    for name in inspect.signature(function).parameters
    if name in SCALARS
]

BAD_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=-1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(max_magnitude=4),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
    # past the digit limit of int-to-str conversion, so its repr raises ValueError
    st.just(-10**5000),
)


def test_every_scalar_argument_is_drawn():
    assert {name for _, name in TARGETS} == SCALARS


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(TARGETS), value=BAD_SCALARS)
def test_public_functions_raise_only_domain_errors(target, value):
    function, name = target
    kwargs = {param: VALID[param] for param in inspect.signature(function).parameters}
    kwargs[name] = value
    try:
        function(**kwargs)
    except (DomainError, ResourceLimitError):
        pass


@pytest.mark.parametrize(
    "call",
    [
        lambda: cm.evaluate_point(None, 5),
        lambda: cm.run_trajectory(("1/2", 3, "exact")),
        lambda: cm.hump_onsets_nondecreasing([1, 2]),
        lambda: cm.hump_onsets_nondecreasing(None),
        lambda: cm.empirical_stats("abc", 2),
    ],
    ids=["evaluate_point", "run_trajectory", "onsets-of-ints", "onsets-of-none", "empirical_stats"],
)
def test_a_record_argument_of_another_type_is_a_domain_error(call):
    # a record's type is checked once, in the public function that takes it
    with pytest.raises(DomainError, match=r"^(params|trajectories|sample) must be "):
        call()


HUGE = 10**5000


@pytest.mark.parametrize(
    "call",
    [
        lambda: cm.variety(-HUGE, "1/2"),
        lambda: ModelParams("1/2", -HUGE),
        lambda: cm.checked_rho(HUGE),
        lambda: cm.cross_validate(3, "1/2", 2, -HUGE),
        lambda: cm.binomial(5, [HUGE]),
        lambda: cm.run_trajectory(ModelParams("1/2", 2), 5).point(HUGE),
        lambda: cm.find_hump_onset(HUGE, "1/2", 5),
        lambda: cm.sweep_range("1/2", {HUGE}),
        lambda: cm.enumerate_products(HUGE),
        lambda: cm.sample_recipe_book(3, "1/2", 1, HUGE),
        lambda: cm.sample_recipe_book(HUGE, "1/2", 1),
        lambda: cm.trial_seed(0, HUGE),
        lambda: cm.validate_expectations(3, "1/2", trials=-HUGE),
        lambda: cm.figure_dataset(HUGE),
        lambda: cm.LogScalar(HUGE, 0.0),
    ],
    ids=[
        "variety", "ModelParams", "checked_rho", "cross_validate", "binomial", "point",
        "find_hump_onset", "sweep_range", "enumerate_products", "sample-mode", "sample-n",
        "trial_seed", "validate_expectations", "figure_dataset", "LogScalar",
    ],
)
def test_an_argument_too_long_to_print_is_still_a_domain_error(call):
    # the message names the value's type, and an int's sign and bit length
    with pytest.raises((DomainError, ResourceLimitError)) as raised:
        call()
    assert re.search(r"an? (negative )?integer of 16610 bits|got a (list|set|Fraction)$", str(raised.value))
