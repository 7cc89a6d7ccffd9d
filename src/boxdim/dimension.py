"""Box-size schedules, log-log regression, and end-to-end dimension estimates.

The box count N_B of a self-similar network falls off as a power of the box
size, N_B ~ box_size^(-D); D is recovered as the negative slope of an
ordinary least-squares fit of log(mean N_B) against log(box_size).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .covering import covering_counts
from .graphs import Graph, largest_component
from .metrics import REPULSION, DistanceMatrix, all_pairs, distinct_distances, sorted_distinct

ALL_DISTINCT = "all_distinct"
LOG_SNAPPED = "log_snapped"

DEFAULT_MAX_POINTS = 15


class DegenerateScalingError(ValueError):
    """Too few box sizes to regress a power law."""


@dataclass(frozen=True)
class BoxSizeSchedule:
    """Ascending box sizes to sweep, all between the smallest distance and the diameter."""

    values: tuple[int, ...]
    selection_mode: str


@dataclass(frozen=True, eq=False)
class ScalingSeries:
    """The greedy box counts of one analyzed graph, every trial at every box size.

    ``counts[i, t]`` is trial ``t``'s box count at ``box_sizes[i]``: one row
    per size, at least one trial, every count an integer of at least 1, else
    ``ValueError``. It is held as read-only int64, a private copy unless it
    is already read-only int64.
    """

    box_sizes: tuple[int, ...]
    counts: np.ndarray
    metric_kind: str
    node_count: int
    edge_count: int

    def __post_init__(self):
        sizes, counts = tuple(int(b) for b in self.box_sizes), np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[0] != len(sizes) or counts.shape[1] < 1:
            raise ValueError(f"counts of shape {counts.shape}, not {len(sizes)} sizes x trials")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"box counts must be integers, got {counts.dtype}")
        # a private copy unless it is already read-only int64
        counts = counts.astype(np.int64, copy=counts.flags.writeable)
        if (counts < 1).any():
            raise ValueError("box counts must be at least 1")
        counts.setflags(write=False)
        object.__setattr__(self, "box_sizes", sizes)
        object.__setattr__(self, "counts", counts)


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
    return sorted_distinct(np.concatenate((snapped, values[[0, -1]])))


def build_schedule(
    dm: DistanceMatrix, max_points: int = DEFAULT_MAX_POINTS, min_box_size: int | None = None
) -> BoxSizeSchedule:
    """Choose the box sizes to sweep for one distance matrix; the trials sweep exactly these.

    Repulsion mode sweeps the distinct distance values themselves, from the
    smallest up to the diameter; hop mode sweeps the integers 1..diameter.
    When there are more than ``max_points`` candidates, log-spaced targets are
    snapped to the nearest candidate (keeping both endpoints) so the fit stays
    well conditioned without flooding large graphs. Then the sizes below
    ``min_box_size`` are dropped, and a sweep of fewer than three sizes is
    refused with ``DegenerateScalingError``.
    """
    if max_points < 3:
        raise ValueError("max_points must be at least 3")
    if dm.metric_kind == REPULSION:
        candidates = distinct_distances(dm)
    else:
        candidates = np.arange(1, dm.diameter + 1, dtype=np.int64)
    if candidates.size <= max_points:
        picked, mode = candidates, ALL_DISTINCT
    else:
        picked, mode = _snap_log_targets(candidates, max_points), LOG_SNAPPED
    values = tuple(int(v) for v in picked)
    if min_box_size is not None:
        values = tuple(v for v in values if v >= min_box_size)
    if len(values) < 3:
        raise DegenerateScalingError(f"degenerate scaling range: only {len(values)} box size(s)")
    return BoxSizeSchedule(values=values, selection_mode=mode)


def _fit_points(sizes, fit_range: tuple[float, float] | None) -> list[int]:
    """The positions of the box sizes in ``fit_range``'s [lo, hi] (all when it is None)."""
    lo, hi = (-np.inf, np.inf) if fit_range is None else fit_range
    kept = [i for i, b in enumerate(sizes) if lo <= b <= hi]
    if len(kept) < 3:
        raise DegenerateScalingError(
            f"degenerate scaling range: {len(kept)} point(s) in fit range (need 3)"
        )
    return kept


def estimate_dimension(
    series: ScalingSeries, fit_range: tuple[float, float] | None = None
) -> DimensionEstimate:
    """Fit log(N_B) vs log(box_size); the dimension is minus the slope.

    ``fit_range`` restricts the fit to box sizes in [lo, hi]; at least three
    schedule points must remain. One least-squares pass fits the rows of
    ``series.counts``: their means' slope gives the dimension, r^2 and the
    slope's standard error, and the population std of each trial's own slope
    (one per column) gives ``dimension_std``, 0.0 for one trial.
    """
    kept = _fit_points(series.box_sizes, fit_range)
    xc = np.log(np.array(series.box_sizes, dtype=np.float64)[kept])
    xc -= xc.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("all box sizes identical; cannot fit")
    # column 0 is the mean series, column t + 1 trial t's counts
    counts = series.counts[kept]
    y = np.log(np.column_stack([counts.mean(axis=1), counts]))
    yc = y - y.mean(axis=0)
    slopes = xc @ yc / sxx
    resid = yc[:, 0] - slopes[0] * xc
    ss_res = float(resid @ resid)
    ss_tot = float(yc[:, 0] @ yc[:, 0])
    return DimensionEstimate(
        dimension=-float(slopes[0]),
        dimension_std=float(np.std(slopes[1:])),
        slope_stderr=float(np.sqrt(ss_res / (xc.size - 2) / sxx)),
        r_squared=1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot)),
        points_used=xc.size,
        method=series.metric_kind,
    )


def series_from_counts(
    dm: DistanceMatrix,
    schedule_values,
    counts: np.ndarray,
    node_count: int,
    edge_count: int,
) -> ScalingSeries:
    """The series of ``counts`` at ``schedule_values`` on ``dm``; kept for ``perfbench/run.py``."""
    return ScalingSeries(schedule_values, counts, dm.metric_kind, node_count, edge_count)


def pipeline(
    g: Graph,
    methods: Iterable[str],
    trials: int = 1000,
    seed: int = 42,
    max_points: int = DEFAULT_MAX_POINTS,
    fit_range: tuple[float, float] | None = None,
    workers: int = 1,
    min_box_size: int | None = None,
) -> Iterator[tuple[DistanceMatrix, ScalingSeries, DimensionEstimate]]:
    """Yield ``(dm, series, estimate)`` for each method, in turn, on one component.

    Stages: largest component, once -> per method, all-pairs distances
    (``all_pairs`` weighs repulsion's degree products and refuses an unknown
    method) -> box-size schedule -> randomized greedy coverings -> log-log
    regression. ``build_schedule`` drops the sizes below ``min_box_size`` and
    refuses a sweep of fewer than three sizes, and a ``fit_range`` that keeps
    fewer than three is refused too, both before any trial runs. ``workers``
    forked processes relax the all-pairs columns and run the trials.
    """
    comp = largest_component(g)
    for method in methods:
        dm = all_pairs(comp, method, workers)
        values = build_schedule(dm, max_points, min_box_size).values
        _fit_points(values, fit_range)  # refused before the trials run
        counts = covering_counts(dm, values, trials, seed, workers=workers)
        series = ScalingSeries(values, counts, dm.metric_kind, dm.n, comp.edge_count)
        yield dm, series, estimate_dimension(series, fit_range)
        # one matrix alive at a time: release it before the next method builds its own
        del dm


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
    """Estimate the fractal dimension of a graph end to end under ``method``.

    Runs ``pipeline``'s stages, the same body as the command line's, for one
    method. Returns the scaling series and the estimate.
    """
    _, series, estimate = next(pipeline(
        g, [method], trials, seed, max_points, fit_range, workers, min_box_size
    ))
    return series, estimate
