"""Capability-by-capability development paths and hump location.

A trajectory evaluates the closed forms at every n from 0 to n_max in one
walk of the window sums, tagging each point with its stage and recording
two landmark indices: the first n where the product range binds (always
r + 1 for bounded r) and the first n where the hump condition holds.

Once the hump condition holds it holds for every larger n.  Dividing the
condition ``variety(n, r) < C(n, r) * rho**(n - r - 1)`` by its right side
gives ``sum_{j=0}^{r} [C(n, j) / C(n, r)] * rho**(r + 1 - j) < 1``, and
each ratio ``C(n, j) / C(n, r) = r! (n - r)! / (j! (n - j)!)`` with j < r
shrinks as n grows, so the left side never increases.  A scan of every
rho = p/q with q <= 20 and r in 0..40, 60, 100, 150 found no reverting
trajectory either.  ``non_monotone_flag`` therefore always reads False; it
stays in the result, and in its serialized form, as a checked invariant.
"""

from __future__ import annotations

import math
from itertools import pairwise
from typing import NamedTuple

from .core import (
    EXACT,
    ModelParams,
    Range,
    Scalar,
    Stage,
    UNBOUNDED,
    _check_range,
    _window_sums,
    _WindowSums,
    checked_rho,
)
from .errors import DomainError
from .scalars import Rational


class TrajectoryPoint(NamedTuple):
    n: int
    variety: Scalar
    avg_length: Scalar
    delta_variety: Scalar
    stage: Stage
    constrained: bool


class Trajectory(NamedTuple):
    params: ModelParams
    points: tuple[TrajectoryPoint, ...]
    transition_constrained_at: int | None
    hump_onset_at: int | None
    non_monotone_flag: bool

    def point(self, n: int) -> TrajectoryPoint:
        return self.points[n]


def default_n_max(r: Range) -> int:
    """Long enough to show the hump when there is one: max(3r, 50)."""
    _check_range(r)
    return 50 if r is UNBOUNDED else max(3 * r, 50)


def _point(sums: _WindowSums, n: int) -> TrajectoryPoint:
    avg_length = sums.avg_length(n)  # reads n - 1 first, so the exact walk never restarts
    return TrajectoryPoint(
        n=n,
        variety=sums.variety(n),
        avg_length=avg_length,
        delta_variety=sums.delta(n),
        stage=sums.stage(n),
        constrained=sums.binds(n),
    )


def evaluate_point(params: ModelParams, n: int) -> TrajectoryPoint:
    """All per-n quantities for one point under fixed parameters."""
    return _point(_window_sums(n, params), n)


def run_trajectory(params: ModelParams, n_max: int | None = None) -> Trajectory:
    """Evaluate the model at every n = 0..n_max under fixed parameters."""
    if n_max is None:
        n_max = default_n_max(params.r)
    sums = _window_sums(n_max, params, "n_max")
    points = tuple(_point(sums, n) for n in range(n_max + 1))
    humps = [point.stage is Stage.DEVELOPED for point in points]
    r = params.r
    return Trajectory(
        params=params,
        points=points,
        transition_constrained_at=r + 1 if r is not UNBOUNDED and n_max >= r + 1 else None,
        hump_onset_at=humps.index(True) if True in humps else None,
        non_monotone_flag=any(a and not b for a, b in pairwise(humps)),
    )


def find_hump_onset(r: int, rho: Rational, n_max: int) -> int | None:
    """Smallest n <= n_max where variety declines at the next step, or None.

    Scanned with the exact backend.  The condition is defined False for
    r >= n, so the scan starts at n = r + 1.
    """
    if r is UNBOUNDED:
        raise DomainError("r must be a bounded nonnegative integer, got UNBOUNDED")
    sums = _window_sums(n_max, ModelParams(rho, r), "n_max")
    if n_max < r + 1:
        raise DomainError(f"n_max must be at least r + 1 = {r + 1}, got {n_max!r}")
    return next((n for n in range(r + 1, n_max + 1) if sums.hump(n)), None)


def sweep_range(
    rho: Rational,
    r_values: list[int],
    n_max: int | None = None,
    backend: str = EXACT,
) -> list[Trajectory]:
    """One trajectory per product range, all over the same n axis."""
    if not isinstance(r_values, (list, tuple)) or not r_values:
        raise DomainError(f"r_values must be a nonempty list of ranges, got {r_values!r}")
    rho = checked_rho(rho)
    if n_max is None:
        n_max = max(default_n_max(r) for r in r_values)
    return [run_trajectory(ModelParams(rho, r, backend), n_max) for r in r_values]


def hump_onsets_nondecreasing(trajectories: list[Trajectory]) -> bool:
    """Whether hump onsets are nondecreasing in r (a reported finding).

    Trajectories are compared in order of product range; an onset that never
    occurs within a trajectory counts as later than any observed one.
    """
    # an unbounded range is wider than any bounded one, so it sorts last
    ordered = sorted(trajectories, key=lambda t: math.inf if t.params.r is None else t.params.r)
    onsets = [math.inf if t.hump_onset_at is None else t.hump_onset_at for t in ordered]
    return all(a <= b for a, b in pairwise(onsets))
