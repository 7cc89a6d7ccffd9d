"""Box-size schedules, log-log regression, and end-to-end dimension estimates.

The box count N_B of a self-similar network falls off as a power of the box
size, N_B ~ box_size^(-D); D is recovered as the negative slope of an
ordinary least-squares fit of log(mean N_B) against log(box_size).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covering import TrialStatistics, covering_counts
from .graphs import Graph, largest_component
from .metrics import (
    HOP,
    REPULSION,
    DistanceMatrix,
    all_pairs,
    distinct_distances,
    edge_repulsive_force,
)

ALL_DISTINCT = "all_distinct"
LOG_SNAPPED = "log_snapped"

DEFAULT_MAX_POINTS = 15


class DegenerateScalingError(ValueError):
    """Too few box sizes to regress a power law."""


@dataclass(frozen=True)
class BoxSizeSchedule:
    """Ascending box sizes to sweep, all between the smallest distance and the diameter."""

    metric_kind: str
    values: tuple[int, ...]
    selection_mode: str


@dataclass(frozen=True, eq=False)
class ScalingSeries:
    """Per-box-size trial statistics for one analyzed graph."""

    stats: tuple[TrialStatistics, ...]
    metric_kind: str
    node_count: int
    edge_count: int

    @property
    def box_sizes(self) -> np.ndarray:
        return np.array([s.box_size for s in self.stats], dtype=np.int64)

    @property
    def mean_counts(self) -> np.ndarray:
        return np.array([s.mean for s in self.stats], dtype=np.float64)


@dataclass(frozen=True)
class DimensionEstimate:
    """Fitted dimension with regression diagnostics.

    ``dimension_std`` is the population std of the dimensions fitted to each
    trial's own series; ``slope_stderr`` is the usual OLS standard error of
    the mean-series slope.
    """

    dimension: float
    dimension_std: float
    slope_stderr: float
    r_squared: float
    points_used: int
    method: str


def _snap_log_targets(values: np.ndarray, max_points: int) -> np.ndarray:
    """Snap log-spaced targets on [min, max] to the nearest available value."""
    lo, hi = float(values[0]), float(values[-1])
    targets = np.geomspace(lo, hi, max_points)
    pos = np.searchsorted(values, targets)
    pos = np.clip(pos, 1, values.size - 1)
    left = values[pos - 1]
    right = values[pos]
    snapped = np.where(targets - left <= right - targets, left, right)
    # endpoints always survive subsampling
    picked = np.union1d(snapped, values[[0, -1]])
    return picked


def build_schedule(dm: DistanceMatrix, max_points: int = DEFAULT_MAX_POINTS) -> BoxSizeSchedule:
    """Choose the box sizes to sweep for one distance matrix.

    Repulsion mode sweeps the distinct distance values themselves, from the
    smallest up to the diameter; hop mode sweeps the integers 1..diameter.
    When there are more than ``max_points`` candidates, log-spaced targets are
    snapped to the nearest candidate (keeping both endpoints) so the fit stays
    well conditioned without flooding large graphs.
    """
    if max_points < 3:
        raise ValueError("max_points must be at least 3")
    if dm.metric_kind == REPULSION:
        candidates = distinct_distances(dm)
    else:
        candidates = np.arange(1, dm.diameter + 1, dtype=np.int64)
    if candidates.size < 3:
        raise DegenerateScalingError(
            f"degenerate scaling range: only {candidates.size} distinct box size(s)"
        )
    if candidates.size <= max_points:
        picked, mode = candidates, ALL_DISTINCT
    else:
        picked, mode = _snap_log_targets(candidates, max_points), LOG_SNAPPED
    return BoxSizeSchedule(
        metric_kind=dm.metric_kind,
        values=tuple(int(v) for v in picked),
        selection_mode=mode,
    )


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least squares line fit: (slope, intercept, r_squared, slope_stderr)."""
    n = x.size
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("all box sizes identical; cannot fit")
    slope = float(xc @ yc) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = yc - slope * xc
    ss_res = float(resid @ resid)
    ss_tot = float(yc @ yc)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    stderr = float(np.sqrt(ss_res / (n - 2) / sxx)) if n > 2 else float("nan")
    return slope, intercept, r_squared, stderr


def estimate_dimension(
    series: ScalingSeries, fit_range: tuple[float, float] | None = None
) -> DimensionEstimate:
    """Fit log(mean N_B) vs log(box_size); the dimension is minus the slope.

    ``fit_range`` restricts the fit to box sizes in [lo, hi]; at least three
    schedule points must remain. The per-trial spread is measured by
    refitting each trial's own counts and taking the std of those slopes.
    """
    stats = series.stats
    if fit_range is not None:
        lo, hi = fit_range
        stats = tuple(s for s in stats if lo <= s.box_size <= hi)
    if len(stats) < 3:
        raise DegenerateScalingError(
            f"degenerate scaling range: {len(stats)} point(s) in fit range (need 3)"
        )
    sizes = np.array([s.box_size for s in stats], dtype=np.float64)
    means = np.array([s.mean for s in stats], dtype=np.float64)
    if (means <= 0).any():
        raise AssertionError("box counts must be positive")

    x = np.log(sizes)
    y = np.log(means)
    slope, _, r_squared, stderr = _ols(x, y)

    trials = stats[0].trials
    if any(s.trials != trials for s in stats):
        raise ValueError("inconsistent trial counts across box sizes")
    if trials > 1:
        counts = np.stack([np.asarray(s.counts, dtype=np.float64) for s in stats])
        yt = np.log(counts)
        xc = x - x.mean()
        sxx = float(xc @ xc)
        per_trial_slopes = xc @ (yt - yt.mean(axis=0)) / sxx
        dimension_std = float(np.std(per_trial_slopes))
    else:
        dimension_std = 0.0

    return DimensionEstimate(
        dimension=-slope,
        dimension_std=dimension_std,
        slope_stderr=stderr,
        r_squared=r_squared,
        points_used=int(sizes.size),
        method=series.metric_kind,
    )


def series_from_counts(
    dm: DistanceMatrix,
    schedule_values,
    counts: np.ndarray,
    node_count: int,
    edge_count: int,
) -> ScalingSeries:
    stats = tuple(
        TrialStatistics.from_counts(b, counts[j]) for j, b in enumerate(schedule_values)
    )
    return ScalingSeries(
        stats=stats,
        metric_kind=dm.metric_kind,
        node_count=node_count,
        edge_count=edge_count,
    )


def analyze(
    g: Graph,
    method: str = REPULSION,
    trials: int = 1000,
    seed: int = 42,
    max_points: int = DEFAULT_MAX_POINTS,
    fit_range: tuple[float, float] | None = None,
    workers: int = 1,
    min_box_size: int | None = None,
) -> tuple[ScalingSeries, DimensionEstimate]:
    """Estimate the fractal dimension of a graph end to end.

    Pipeline: largest component -> (repulsion only: degree-product edge
    weights) -> all-pairs distances -> ``analyze_matrix``. ``workers`` forked
    processes relax the all-pairs columns and run the trials. Returns the
    scaling series and the estimate.
    """
    if method not in (REPULSION, HOP):
        raise ValueError(f"unknown method {method!r}")
    comp = largest_component(g)
    dm = all_pairs(edge_repulsive_force(comp) if method == REPULSION else comp, method, workers)
    return analyze_matrix(
        dm, comp.edge_count, trials=trials, seed=seed, max_points=max_points,
        fit_range=fit_range, workers=workers, min_box_size=min_box_size,
    )


def analyze_matrix(
    dm: DistanceMatrix,
    edge_count: int,
    trials: int = 1000,
    seed: int = 42,
    max_points: int = DEFAULT_MAX_POINTS,
    fit_range: tuple[float, float] | None = None,
    workers: int = 1,
    min_box_size: int | None = None,
) -> tuple[ScalingSeries, DimensionEstimate]:
    """Estimate the fractal dimension from a connected graph's distance matrix.

    Pipeline: box-size schedule -> randomized greedy coverings -> log-log
    regression. ``edge_count`` is the graph's, recorded in the series.
    ``min_box_size`` drops schedule entries below it, for metrics whose
    smallest sizes are not wanted in the sweep.
    """
    schedule = build_schedule(dm, max_points)
    values = schedule.values
    if min_box_size is not None:
        values = tuple(v for v in values if v >= min_box_size)
        if len(values) < 3:
            raise DegenerateScalingError(
                f"degenerate scaling range: {len(values)} box size(s) >= {min_box_size}"
            )
    counts = covering_counts(dm, values, trials, seed, workers=workers)
    series = series_from_counts(dm, values, counts, dm.n, edge_count)
    estimate = estimate_dimension(series, fit_range)
    return series, estimate
