"""Capability-by-capability development paths and hump location.

A trajectory evaluates the closed forms at every n from 0 to n_max in one
walk of the window sums, tagging each point with its stage and recording
two landmark indices: the first n where the product range binds (always
r + 1 for bounded r) and the first n where the hump condition holds.

Theorem: once the hump condition holds it holds for every larger n.  Dividing
the condition ``variety(n, r) < C(n, r) * rho**(n - r - 1)`` by its right side
gives ``sum_{j=0}^{r} [C(n, j) / C(n, r)] * rho**(r + 1 - j) < 1``, and each
ratio ``C(n, j) / C(n, r) = r! (n - r)! / (j! (n - j)!)`` with j < r shrinks
as n grows, so the left side never increases.  So ``non_monotone_flag`` is
False by the theorem, not by a run-time scan (tier-1 checks that a binding
point is DEVELOPED exactly where delta < 0); it stays in the result and JSON.
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
    _check_count,
    _check_range,
    _hump,
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
        _check_count(n)
        if n >= len(self.points):
            raise DomainError(f"n must be at most n_max = {len(self.points) - 1}, got {n}")
        return self.points[n]


def default_n_max(r: Range) -> int:
    """Long enough to show the hump when there is one: max(3r, 50)."""
    _check_range(r)
    return 50 if r is UNBOUNDED else max(3 * r, 50)


def _point(sums: _WindowSums, n: int, hump: bool) -> TrajectoryPoint:
    """The point at ``n``: it reads the window sums at n - 1 and n, in that order."""
    return TrajectoryPoint(
        n=n,
        avg_length=sums.avg_length(n),
        variety=sums.variety(n),
        delta_variety=sums.delta(n),
        stage=sums.stage(n, hump),
        constrained=sums.binds(n),
    )


def evaluate_point(params: ModelParams, n: int) -> TrajectoryPoint:
    """All per-n quantities for one point; one `_hump` test decides its stage."""
    sums = _window_sums(n, params)
    return _point(sums, n, sums.hump(n))


def run_trajectory(params: ModelParams, n_max: int | None = None) -> Trajectory:
    """Evaluate the model at every n = 0..n_max under fixed parameters.

    Both landmarks come before the walk: the range binds from r + 1 on, and the
    hump holds from `find_hump_onset`'s bisected onset on, by the theorem.
    """
    if n_max is None:
        n_max = default_n_max(params.r)
    sums, r = _window_sums(n_max, params, "n_max"), params.r
    binds = sums.binds(n_max)
    onset = find_hump_onset(r, params.rho, n_max) if binds else None
    points = tuple(_point(sums, n, onset is not None and n >= onset) for n in range(n_max + 1))
    return Trajectory(params, points, r + 1 if binds else None, onset, non_monotone_flag=False)


def find_hump_onset(r: int, rho: Rational, n_max: int) -> int | None:
    """Smallest n <= n_max where variety declines at the next step, or None.

    The condition is defined False for r >= n and never reverts once it holds
    (see the module docstring), so the onset is bisected in r + 1..n_max with
    the exact test `core._hump`, in O(log n_max) tests and no walk.
    """
    if r is UNBOUNDED:
        raise DomainError("r must be a bounded nonnegative integer, got UNBOUNDED")
    rho = checked_rho(rho)
    _check_range(r)
    _check_count(n_max, "n_max")
    if n_max < r + 1:
        raise DomainError(f"n_max must be at least r + 1 = {r + 1}, got {n_max!r}")
    p, q = rho.numerator, rho.denominator
    lo, hi = r + 1, n_max + 1  # plain ints: bisect over a range overflows past sys.maxsize
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _hump(mid, r, p, q) else (mid + 1, hi)
    return lo if lo <= n_max else None


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
