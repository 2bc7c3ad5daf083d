"""Datasets behind the three standard plots (data only, no rendering).

Figure 1: rho = 1, unconstrained vs r = 5 — variety growth slows once the
range binds.  Figure 2: rho = 1/2, unconstrained vs r = 30 — variety rises,
peaks, and falls; markers give the n where the range starts binding and the
hump onset.  Figure 3: rho = 1/2, one series per r — the wider the range,
the later the hump.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .core import Range, UNBOUNDED, _check_choice
from .trajectory import TrajectoryPoint, sweep_range

#: figure id -> (rho, product range of each series, marker names for where a
#: series' range starts binding and for its hump onset; None marks nothing)
_FIGURES = {
    1: (Fraction(1), (UNBOUNDED, 5), ("constrained_from", "hump_onset")),
    2: (Fraction(1, 2), (UNBOUNDED, 30), ("constrained_from", "hump_onset")),
    3: (Fraction(1, 2), (5, 10, 20, 30), (None, "hump_onset_r={r}")),
}
FIGURE_IDS = tuple(_FIGURES)


class FigureSeries(NamedTuple):
    name: str
    r: Range
    points: tuple[TrajectoryPoint, ...]


class FigureData(NamedTuple):
    figure_id: int
    rho: Fraction
    series: tuple[FigureSeries, ...]
    markers: Mapping[str, int] = MappingProxyType({})


def figure_dataset(figure_id: int, n_max: int | None = None) -> FigureData:
    """Compute the dataset for one figure; pure and deterministic."""
    rho, ranges, marker_names = _FIGURES[_check_choice(figure_id, FIGURE_IDS, "figure_id")]
    series, markers = [], {}
    for r, traj in zip(ranges, sweep_range(rho, list(ranges), n_max)):
        series.append(FigureSeries("unconstrained" if r is UNBOUNDED else f"r={r}", r, traj.points))
        landmarks = (traj.transition_constrained_at, traj.hump_onset_at)
        for name, n in zip(marker_names, landmarks):
            if name is not None and n is not None:
                markers[name.format(r=r)] = n
    return FigureData(figure_id, rho, tuple(series), markers)
