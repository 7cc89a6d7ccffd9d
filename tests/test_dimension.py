import math

import numpy as np
import pytest
from scipy import stats as sps

import boxdim as bd
from boxdim.dimension import DegenerateScalingError, _snap_log_targets, series_from_counts

from conftest import random_connected_graph


def collapsing_path() -> bd.DistanceMatrix:
    """The path 0-1-2-3 with forces 1, 998, 1: distinct distances 1, 998, 999
    and 1000, whose middle log-spaced target of three snaps to 1."""
    g = bd.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    return bd.all_pairs(bd.WeightedGraph(graph=g, weights=np.array([1, 1, 998, 998, 1, 1])))


def no_trials(*args, **kwargs):
    raise AssertionError("the covering trials ran")


def synthetic_series(sizes, counts_per_size, metric=bd.REPULSION):
    """Row i holds the trial counts at sizes[i]; a flat list is one trial."""
    counts = np.reshape(counts_per_size, (len(sizes), -1))
    return bd.ScalingSeries(sizes, counts, metric, node_count=0, edge_count=0)


class TestBuildSchedule:
    def test_worked_example_all_distinct(self, example6_repulsion):
        sched = bd.build_schedule(example6_repulsion, max_points=15)
        assert sched.values == (2, 4, 6, 10, 12, 16, 18)
        assert sched.selection_mode == "all_distinct"

    def test_hop_uses_integer_range(self, example6_hop):
        sched = bd.build_schedule(example6_hop, max_points=15)
        assert sched.values == (1, 2, 3, 4)

    def test_subsampling_cardinality(self):
        # long path graph: hop diameter 200, so 1..200 gets log-snapped
        g = bd.Graph.from_edges(201, [(i, i + 1) for i in range(200)])
        dm = bd.all_pairs(g, bd.HOP)
        sched = bd.build_schedule(dm, max_points=12)
        assert sched.selection_mode == "log_snapped"
        assert len(sched.values) <= 12
        assert sched.values[0] == 1
        assert sched.values[-1] == 200
        assert list(sched.values) == sorted(set(sched.values))

    def test_repulsion_subsampling_keeps_endpoints(self, karate):
        dm = bd.all_pairs(bd.edge_repulsive_force(karate))
        distinct = bd.distinct_distances(dm)
        assert distinct.size > 10
        sched = bd.build_schedule(dm, max_points=10)
        assert sched.selection_mode == "log_snapped"
        assert len(sched.values) <= 10
        assert sched.values[0] == int(distinct[0])
        assert sched.values[-1] == dm.diameter
        assert set(sched.values) <= set(int(v) for v in distinct)

    def test_degenerate_range(self):
        g = bd.load_edge_list("1 2\n2 3\n3 1\n")
        dm = bd.all_pairs(bd.edge_repulsive_force(g))
        with pytest.raises(DegenerateScalingError, match="degenerate scaling range"):
            bd.build_schedule(dm)

    def test_collapsed_snapped_schedule_refused(self):
        dm = collapsing_path()
        assert bd.build_schedule(dm, max_points=4).values == (1, 998, 999, 1000)
        with pytest.raises(DegenerateScalingError, match="degenerate scaling range"):
            bd.build_schedule(dm, max_points=3)

    def test_min_box_size_applied_after_snapping(self):
        g = bd.Graph.from_edges(201, [(i, i + 1) for i in range(200)])
        dm = bd.all_pairs(g, bd.HOP)
        snapped = bd.build_schedule(dm, max_points=12)
        sched = bd.build_schedule(dm, max_points=12, min_box_size=10)
        assert sched.values == tuple(v for v in snapped.values if v >= 10)
        assert sched.selection_mode == snapped.selection_mode == "log_snapped"
        with pytest.raises(DegenerateScalingError, match="degenerate scaling range"):
            bd.build_schedule(dm, max_points=12, min_box_size=snapped.values[-2])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
    def test_snapped_targets_match_union1d(self, dtype):
        # the snapping and np.union1d with the endpoints, as the schedule once did
        def oracle(values, max_points):
            targets = np.geomspace(float(values[0]), float(values[-1]), max_points)
            pos = np.clip(np.searchsorted(values, targets), 1, values.size - 1)
            left, right = values[pos - 1], values[pos]
            snapped = np.where(targets - left <= right - targets, left, right)
            return np.union1d(snapped, values[[0, -1]])

        top = min(np.iinfo(dtype).max, 10**6)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            size = int(rng.integers(4, 200))
            values = np.sort(rng.choice(np.arange(1, top + 1), size, replace=False)).astype(dtype)
            max_points = int(rng.integers(3, size))
            picked = _snap_log_targets(values, max_points)
            expected = oracle(values, max_points)
            assert picked.dtype == dtype and picked.tolist() == expected.tolist()


class TestEstimateDimension:
    def test_exact_power_law(self):
        sizes = [1, 2, 4, 8]
        counts = [64 // b**2 for b in sizes]
        est = bd.estimate_dimension(synthetic_series(sizes, counts))
        assert abs(est.dimension - 2.0) < 1e-9
        assert abs(est.r_squared - 1.0) < 1e-9
        assert est.points_used == 4

    def test_constant_series(self):
        est = bd.estimate_dimension(synthetic_series([1, 3, 9], [5, 5, 5]))
        assert est.dimension == pytest.approx(0.0, abs=1e-12)

    def test_max_points_below_three_refused(self, example6_hop):
        with pytest.raises(ValueError, match="max_points must be at least 3"):
            bd.build_schedule(example6_hop, max_points=2)

    def test_too_few_points(self):
        with pytest.raises(DegenerateScalingError):
            bd.estimate_dimension(synthetic_series([2, 4], [8, 2]))

    def test_fit_range_filters_points(self):
        sizes = [1, 2, 4, 8, 16]
        counts = [256 // b**2 for b in sizes]
        est = bd.estimate_dimension(synthetic_series(sizes, counts), fit_range=(2, 8))
        assert est.points_used == 3
        assert abs(est.dimension - 2.0) < 1e-9

    def test_fit_range_too_narrow(self):
        sizes = [1, 2, 4, 8]
        counts = [64 // b**2 for b in sizes]
        with pytest.raises(DegenerateScalingError):
            bd.estimate_dimension(synthetic_series(sizes, counts), fit_range=(3, 9))

    def test_scale_invariance(self):
        sizes = np.array([2, 4, 8, 16])
        counts = [512 // b**2 for b in sizes]
        a = bd.estimate_dimension(synthetic_series(sizes, counts))
        b = bd.estimate_dimension(synthetic_series(sizes * 7, counts))
        assert a.dimension == pytest.approx(b.dimension, abs=1e-12)

    def test_matches_scipy_linregress(self):
        rng = np.random.default_rng(2)
        sizes = np.array([1, 2, 3, 5, 8, 13, 21])
        counts = np.maximum(1, (900 * sizes**-1.7 * rng.uniform(0.8, 1.25, sizes.size)).astype(int))
        est = bd.estimate_dimension(synthetic_series(sizes, counts))
        ref = sps.linregress(np.log(sizes), np.log(counts))
        assert est.dimension == pytest.approx(-ref.slope, abs=1e-12)
        assert est.r_squared == pytest.approx(ref.rvalue**2, abs=1e-12)
        assert est.slope_stderr == pytest.approx(ref.stderr, abs=1e-12)

    def test_per_trial_dimension_std(self):
        # two trials with exact slopes -1 and -3: population std of slopes = 1
        sizes = [1, 2, 4]
        per_size_counts = [
            np.array([64, 64]),
            np.array([32, 8]),
            np.array([16, 1]),
        ]
        series = synthetic_series(sizes, per_size_counts)
        est = bd.estimate_dimension(series)
        assert 1.0 < est.dimension < 3.0
        assert est.dimension_std == pytest.approx(1.0, abs=1e-9)

    def test_dimension_std_matches_scipy_per_trial(self):
        rng = np.random.default_rng(4)
        sizes = np.array([1, 2, 3, 5, 8, 13])
        counts = np.maximum(
            1, (500 * sizes[:, None] ** -1.5 * rng.uniform(0.7, 1.4, (sizes.size, 40))).astype(int)
        )
        est = bd.estimate_dimension(synthetic_series(sizes, counts))
        slopes = [sps.linregress(np.log(sizes), np.log(counts[:, t])).slope for t in range(40)]
        assert est.dimension_std == pytest.approx(np.std(slopes), abs=1e-12)

    def test_one_trial_has_no_spread(self):
        est = bd.estimate_dimension(synthetic_series([1, 2, 4, 8], [60, 17, 5, 1]))
        assert est.dimension_std == 0.0

    def test_inconsistent_trials_rejected(self):
        # a ragged matrix is refused when the series is built
        with pytest.raises(ValueError, match="inhomogeneous"):
            bd.ScalingSeries((1, 2, 4), [[5, 5], [4, 4], [3]], bd.HOP, node_count=0, edge_count=0)

    def test_identical_box_sizes_refused(self):
        with pytest.raises(ValueError, match="all box sizes identical"):
            bd.estimate_dimension(synthetic_series([2, 2, 2], [5, 4, 3]))


class TestAnalyze:
    def test_karate_repulsion_frozen(self, karate):
        series, est = bd.analyze(karate, method=bd.REPULSION, trials=200, seed=42)
        again, est2 = bd.analyze(karate, method=bd.REPULSION, trials=200, seed=42)
        assert est.dimension == est2.dimension
        assert np.array_equal(series.counts, again.counts)
        assert 0.7 < est.dimension < 1.4

    def test_karate_hop_range(self, karate):
        _, est = bd.analyze(karate, method=bd.HOP, trials=200, seed=42)
        assert 1.6 < est.dimension < 2.5

    def test_series_metadata(self, karate):
        series, _ = bd.analyze(karate, method=bd.HOP, trials=10, seed=1)
        assert (series.node_count, series.edge_count) == (34, 78)
        assert series.metric_kind == bd.HOP
        assert series.counts.shape == (len(series.box_sizes), 10)

    def test_extracts_largest_component(self):
        g = bd.load_edge_list("1 2\n2 3\n3 4\n4 5\nx y\n")
        series, _ = bd.analyze(g, method=bd.HOP, trials=5, seed=0)
        assert series.node_count == 5

    def test_triangle_degenerate(self):
        g = bd.load_edge_list("1 2\n2 3\n3 1\n")
        with pytest.raises(DegenerateScalingError, match="degenerate scaling range"):
            bd.analyze(g, method=bd.REPULSION, trials=5, seed=0)

    def test_unknown_method(self, karate):
        with pytest.raises(ValueError, match="unknown metric"):
            bd.analyze(karate, method="euclid")

    def test_min_box_size_filter(self, karate):
        series, est = bd.analyze(karate, method=bd.HOP, trials=10, seed=0, min_box_size=2)
        assert series.box_sizes[0] == 2
        assert est.points_used == len(series.box_sizes)
        sched = bd.build_schedule(bd.all_pairs(karate, bd.HOP), min_box_size=2)
        assert sched.values == series.box_sizes

    def test_collapsed_schedule_refused_before_the_trials(self, monkeypatch):
        g = bd.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        # analyze weighs the path by degree products; the collapsing forces replace them
        monkeypatch.setattr(bd.dimension, "all_pairs", lambda *args: collapsing_path())
        monkeypatch.setattr(bd.dimension, "covering_counts", no_trials)
        with pytest.raises(DegenerateScalingError, match="degenerate scaling range"):
            bd.analyze(g, bd.REPULSION, trials=50, max_points=3)

    def test_min_box_size_leaving_two_refused_before_the_trials(self, karate, monkeypatch):
        # karate hop sweeps 1..5, so sizes from 4 on leave 4 and 5
        with pytest.raises(DegenerateScalingError, match="degenerate scaling range"):
            bd.build_schedule(bd.all_pairs(karate, bd.HOP), min_box_size=4)
        monkeypatch.setattr(bd.dimension, "covering_counts", no_trials)
        with pytest.raises(DegenerateScalingError, match="degenerate scaling range"):
            bd.analyze(karate, bd.HOP, trials=5, min_box_size=4)

    @pytest.mark.parametrize("fit_range", [(100000, 200000), (2, 3)])
    def test_empty_fit_range_refused_before_the_trials(self, karate, monkeypatch, fit_range):
        # karate hop sweeps 1..5: neither range keeps 3 sizes, so no trial may run
        monkeypatch.setattr(bd.dimension, "covering_counts", no_trials)
        with pytest.raises(DegenerateScalingError, match=r"\d point\(s\) in fit range \(need 3\)"):
            bd.analyze(karate, bd.HOP, trials=5, fit_range=fit_range)

    def test_sierpinski_comparative_claim_level4(self):
        g = bd.generate_sierpinski(4).graph
        target = math.log(3) / math.log(2)
        _, rep = bd.analyze(g, method=bd.REPULSION, trials=30, seed=42, workers=2)
        _, hop = bd.analyze(g, method=bd.HOP, trials=30, seed=42, workers=2)
        assert abs(rep.dimension - target) < abs(hop.dimension - target)


def test_series_from_counts_round_trip(karate):
    dm = bd.all_pairs(karate, bd.HOP)
    sizes = (1, 2, 3, 4, 5)
    counts = bd.covering_counts(dm, sizes, trials=8, master_seed=0)
    series = series_from_counts(dm, sizes, counts, karate.node_count, karate.edge_count)
    assert series.box_sizes == sizes
    # the trials' read-only matrix is held as it is, without a copy
    assert series.counts is counts and not counts.flags.writeable


class TestScalingSeries:
    def test_writable_counts_copied(self):
        mine = np.array([[60, 62], [17, 19], [5, 5]], dtype=np.int32)
        series = bd.ScalingSeries((1, 2, 4), mine, bd.HOP, node_count=0, edge_count=0)
        mine[0, 0] = 999  # a writable input is copied, so the series keeps its counts
        assert series.counts.tolist() == [[60, 62], [17, 19], [5, 5]]
        assert series.counts.dtype == np.int64 and not series.counts.flags.writeable
        assert mine.flags.writeable
        own = np.array([[60], [17], [5]])
        series = bd.ScalingSeries((1, 2, 4), own, bd.HOP, node_count=0, edge_count=0)
        own[:] = 7
        assert own.flags.writeable and series.counts.ravel().tolist() == [60, 17, 5]

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[5, 5], [4, 4]], "not 3 sizes x trials"),
            ([5, 4, 3], "not 3 sizes x trials"),
            (np.ones((3, 0), dtype=np.int64), "not 3 sizes x trials"),
            ([[5], [4], [0]], "at least 1"),
            ([[5, 5], [4, -1], [3, 3]], "at least 1"),
            ([[5.0], [4.0], [3.0]], "must be integers"),
        ],
        ids=["rows", "1-d", "no-trials", "zero", "negative", "float"],
    )
    def test_bad_counts_refused(self, counts, message):
        with pytest.raises(ValueError, match=message):
            bd.ScalingSeries((1, 2, 4), counts, bd.HOP, node_count=0, edge_count=0)
