import concurrent.futures
import logging
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boxdim as bd
from boxdim import covering

from conftest import (
    dense_greedy_colors,
    die_on_trial,
    is_valid_covering,
    random_connected_graph,
    set_usable_cpus,
    time_limit,
    trial_stats,
)

# list lengths per walked node that send every size with a list entry to the
# reach rows, or every one to the side lists
SHORT_LIST_LIMITS = (0, 10**9)
# node counts up to which covering_counts colors in lockstep: never (every
# size walks the lists), or on every graph that fits one word
WORD_NODE_LIMITS = (0, 64)


def all_box_sizes(dm):
    """Box size 1, every distance and one above it, and one past the diameter,
    so some sizes walk no node (every node is isolated, or every node is
    universal) and the rest walk near lists or reach rows."""
    distances = bd.distinct_distances(dm).tolist()
    return sorted({1, dm.diameter + 5, *distances, *(d + 1 for d in distances)})


def assert_counts_follow_rule(dm, sizes, counts, master_seed):
    """Each trial's counts are those of the dense rule on the trial's order."""
    for t in range(counts.shape[1]):
        order = np.random.default_rng((master_seed, t)).permutation(dm.n)
        dp = dm.dist[np.ix_(order, order)]
        assert counts[:, t].tolist() == [dense_greedy_colors(dp, lb)[1] for lb in sizes]


def all_partitions(items):
    """Every partition of a small item list (test oracle)."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


class TestGreedyBoxCover:
    def test_worked_example_identity_order_two_boxes(self, example6_repulsion):
        cov = bd.greedy_box_cover(example6_repulsion, 10, range(6))
        assert cov.box_count == 2
        assert is_valid_covering(example6_repulsion, cov)
        groups = {}
        for node, color in enumerate(cov.colors):
            groups.setdefault(int(color), set()).add(node)
        assert sorted(groups.values(), key=min) == [{0, 1, 2}, {3, 4, 5}]

    def test_worked_example_all_orders(self, example6_repulsion):
        # greedy reaches the 2-box optimum for most orders but not all:
        # e.g. coloring 3 then 4 first (labels) puts them in one box and
        # forces a third. See the decisions ledger; the spec's claim that
        # every order yields 2 does not hold for this matrix.
        counts = {}
        for p in permutations(range(6)):
            cov = bd.greedy_box_cover(example6_repulsion, 10, p)
            assert is_valid_covering(example6_repulsion, cov)
            counts[cov.box_count] = counts.get(cov.box_count, 0) + 1
        assert counts == {2: 640, 3: 80}

    def test_two_box_partition_is_unique_optimum(self, example6_repulsion):
        d = example6_repulsion.dist
        valid_two_box = []
        for part in all_partitions(range(6)):
            if len(part) != 2:
                continue
            if all(d[a, b] < 10 for group in part for a, b in combinations(group, 2)):
                valid_two_box.append(sorted((sorted(g) for g in part), key=len))
        assert valid_two_box == [[[0, 1, 2], [3, 4, 5]]]
        assert bd.brute_force_min_boxes(example6_repulsion, 10) == 2

    def test_box_size_above_diameter_single_box(self, example6_repulsion):
        cov = bd.greedy_box_cover(example6_repulsion, 19, range(6))
        assert cov.box_count == 1

    def test_box_size_at_min_distance_all_singletons(self, example6_repulsion):
        cov = bd.greedy_box_cover(example6_repulsion, 2, range(6))
        assert cov.box_count == 6

    def test_rejects_non_permutation(self, example6_repulsion):
        with pytest.raises(ValueError, match="permutation"):
            bd.greedy_box_cover(example6_repulsion, 10, [0, 0, 1, 2, 3, 4])

    def test_rejects_nonpositive_box_size(self, example6_repulsion):
        with pytest.raises(ValueError, match="positive"):
            bd.greedy_box_cover(example6_repulsion, 0, range(6))

    @pytest.mark.parametrize("metric", [bd.HOP, bd.REPULSION])
    def test_random_coverings_valid(self, metric):
        rng = np.random.default_rng(5)
        for seed in range(8):
            g = random_connected_graph(12, 10, seed=seed)
            arg = bd.edge_repulsive_force(g) if metric == bd.REPULSION else g
            dm = bd.all_pairs(arg, metric)
            for lb in bd.distinct_distances(dm):
                cov = bd.greedy_box_cover(dm, int(lb), rng.permutation(dm.n))
                assert is_valid_covering(dm, cov)
                assert 1 <= cov.box_count <= dm.n


class TestBruteForce:
    def test_worked_example(self, example6_repulsion):
        assert bd.brute_force_min_boxes(example6_repulsion, 10) == 2

    def test_trivial_endpoints(self, example6_repulsion):
        assert bd.brute_force_min_boxes(example6_repulsion, 19) == 1
        assert bd.brute_force_min_boxes(example6_repulsion, 2) == 6

    def test_matches_partition_enumeration(self):
        # independent oracle: minimum box count over all valid partitions
        g = random_connected_graph(7, 6, seed=9)
        dm = bd.all_pairs(bd.edge_repulsive_force(g))
        for lb in bd.distinct_distances(dm):
            best = min(
                len(part)
                for part in all_partitions(range(dm.n))
                if all(
                    dm.dist[a, b] < lb
                    for group in part
                    for a, b in combinations(group, 2)
                )
            )
            assert bd.brute_force_min_boxes(dm, int(lb)) == best

    def test_size_bound(self):
        g = random_connected_graph(13, 5, seed=0)
        dm = bd.all_pairs(g, bd.HOP)
        with pytest.raises(ValueError, match="12"):
            bd.brute_force_min_boxes(dm, 2)

    def test_greedy_never_beats_exact(self):
        for seed in range(20):
            g = random_connected_graph(4 + seed % 9, seed % 13, seed=100 + seed)
            metric = bd.REPULSION if seed % 2 else bd.HOP
            arg = bd.edge_repulsive_force(g) if metric == bd.REPULSION else g
            dm = bd.all_pairs(arg, metric)
            rng = np.random.default_rng(seed)
            for lb in bd.distinct_distances(dm):
                cov = bd.greedy_box_cover(dm, int(lb), rng.permutation(dm.n))
                assert cov.box_count >= bd.brute_force_min_boxes(dm, int(lb))


class TestRunTrials:
    def test_box_size_above_diameter(self, example6_repulsion):
        stats = trial_stats(example6_repulsion, 99, trials=5, master_seed=1)
        assert stats.mean == 1.0
        assert stats.std == 0.0
        assert stats.min == stats.max == 1

    def test_worked_example_trials_frozen(self, example6_repulsion):
        # greedy hits 3 boxes on some orders (see ledger), so the mean sits
        # slightly above the optimum of 2; value frozen from a reference run
        stats = trial_stats(example6_repulsion, 10, trials=100, master_seed=42)
        assert stats.min == 2
        assert stats.max == 3
        assert stats.mean == pytest.approx(2.07)
        assert set(np.unique(stats.counts)) <= {2, 3}

    def test_karate_hop_lb3_frozen(self, karate):
        dm = bd.all_pairs(karate, bd.HOP)
        stats = trial_stats(dm, 3, trials=1000, master_seed=42)
        assert (stats.min, stats.max) == (4, 6)
        assert stats.mean == pytest.approx(4.442)
        assert stats.std == pytest.approx(0.5278598298791073)

    def test_single_trial_zero_std(self, example6_hop):
        stats = trial_stats(example6_hop, 2, trials=1, master_seed=7)
        assert stats.std == 0.0
        assert stats.trials == 1

    def test_deterministic_across_runs(self, karate):
        dm = bd.all_pairs(karate, bd.HOP)
        a = trial_stats(dm, 2, trials=50, master_seed=9)
        b = trial_stats(dm, 2, trials=50, master_seed=9)
        assert np.array_equal(a.counts, b.counts)

    def test_deterministic_across_workers(self, monkeypatch):
        # above 64 nodes, so the trials run on forked workers
        set_usable_cpus(monkeypatch, 4)
        dm = bd.all_pairs(random_connected_graph(100, 40, seed=2), bd.HOP)
        serial = bd.covering_counts(dm, [2, 3, 4], trials=40, master_seed=3, workers=1)
        parallel = bd.covering_counts(dm, [2, 3, 4], trials=40, master_seed=3, workers=4)
        assert np.array_equal(serial, parallel)

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        dm = bd.all_pairs(random_connected_graph(100, 40, seed=2), bd.HOP)
        set_usable_cpus(monkeypatch, 2)
        die_on_trial(monkeypatch, 3)
        with time_limit(60), pytest.raises(BrokenProcessPool):
            bd.covering_counts(dm, [2, 3], trials=8, master_seed=1, workers=2)

    def test_small_graph_starts_no_pool(self, karate, monkeypatch):
        # at most 64 nodes: the trials run in lockstep in the calling process
        dm = bd.all_pairs(karate, bd.HOP)
        sizes = [1, 2, 3, 4, 6]
        with monkeypatch.context() as mp:
            mp.setattr(covering, "_WORD_NODES", 0)
            walked = bd.covering_counts(dm, sizes, trials=40, master_seed=3, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        counts = bd.covering_counts(dm, sizes, trials=40, master_seed=3, workers=4)
        assert np.array_equal(counts, walked)

    def test_one_usable_cpu_starts_no_pool(self, monkeypatch):
        # the workers asked for are clamped to the usable CPUs: one runs the
        # trials in the calling process, with the same counts
        dm = bd.all_pairs(random_connected_graph(100, 40, seed=2), bd.HOP)
        serial = bd.covering_counts(dm, [2, 3, 4], trials=40, master_seed=3, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        set_usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        counts = bd.covering_counts(dm, [2, 3, 4], trials=40, master_seed=3, workers=500)
        assert np.array_equal(counts, serial)

    def test_trials_must_be_positive(self, example6_hop):
        with pytest.raises(ValueError, match="trials"):
            trial_stats(example6_hop, 2, trials=0, master_seed=1)

    def test_mean_non_increasing_on_fixtures(self, karate):
        # verified to hold on these fixtures over the default schedule;
        # greedy noise produces tiny bumps on the 6-node example and on the
        # level-2 Sierpinski repulsion grid, so those are not asserted
        fixtures = [
            bd.all_pairs(karate, bd.HOP),
            bd.all_pairs(bd.edge_repulsive_force(karate), bd.REPULSION),
            bd.all_pairs(bd.generate_sierpinski(2).graph, bd.HOP),
        ]
        for dm in fixtures:
            sched = bd.build_schedule(dm)
            counts = bd.covering_counts(dm, sched.values, trials=200, master_seed=4)
            means = counts.mean(axis=1)
            assert (np.diff(means) <= 1e-12).all()


class TestGreedyCorePaths:
    def test_vectorized_matches_reference(self, karate):
        # the kernel, through its reach rows and its Python list scans, vs a
        # direct python transcription of the rule on the permuted matrix
        dm = bd.all_pairs(karate, bd.HOP)
        rng = np.random.default_rng(0)
        for lb in (2, 3, 4):
            order = rng.permutation(dm.n)
            dp = dm.dist[order][:, order]
            ref_colors = []
            for i in range(dm.n):
                forbidden = {
                    ref_colors[t] for t in range(i) if dp[i, t] >= lb
                }
                c = 0
                while c in forbidden:
                    c += 1
                ref_colors.append(c)
            for limit in SHORT_LIST_LIMITS:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(covering, "_SHORT_LIST", limit)
                    cov = bd.greedy_box_cover(dm, lb, order)
                assert cov.colors[order].tolist() == ref_colors
                assert cov.box_count == max(ref_colors) + 1

    def test_trial_allocates_nothing_per_list_entry(self):
        # a trial reads the side lists and the distance rows as built: its
        # reach rows grow with the colors, never with the list lengths
        dm = bd.all_pairs(bd.generate_sierpinski(4).graph, bd.HOP)
        plan = covering._plan(dm, range(2, dm.diameter + 1))
        assert {type(entry.step) for entry in plan} == {covering._SideLists, covering._Reach}
        covering._trial_counts(plan, dm.n, 0, 0)  # warm-up
        tracemalloc.start()
        try:
            covering._trial_counts(plan, dm.n, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dm.dist.nbytes / 4

    def test_plan_holds_one_matrix_beside_the_distances(self):
        # the long-list sizes read the distances themselves, the short lists
        # hold at most _SHORT_LIST entries per walked node, and the matrix is
        # read a block of rows at a time, so little is held beside it
        dm = bd.all_pairs(bd.generate_sierpinski(5).graph, bd.HOP)
        tracemalloc.start()
        try:
            plan = covering._plan(dm, range(2, dm.diameter + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert {type(entry.step) for entry in plan} == {covering._SideLists, covering._Reach}
        assert peak < dm.dist.nbytes / 4

    def test_no_walk_sorts_no_rows(self):
        # on a complete graph every node is isolated at size 1 and universal
        # above it, so no size walks a node: size 1's lists are empty, and no
        # pair is gathered or sorted; sizes 2 and 5 hold every pair near, so
        # they take the reach rows, which a trial with no walked node never reads
        n = 70
        dm = bd.all_pairs(bd.Graph.from_edges(n, combinations(range(n), 2)), bd.HOP)
        sizes = [1, 2, 5]

        def no_sort(*args, **kwargs):
            raise AssertionError("distance rows were sorted")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "flatnonzero", no_sort)
            mp.setattr(np, "lexsort", no_sort)
            plan = covering._plan(dm, sizes, trials=4)
        assert not any(entry.walk.any() for entry in plan)
        steps = [entry.step for entry in plan]
        assert [type(step) for step in steps] == [covering._SideLists, covering._Reach, covering._Reach]
        assert steps[0].cols.size == 0
        counts = bd.covering_counts(dm, sizes, trials=4, master_seed=2)
        assert counts.tolist() == [[n] * 4, [1] * 4, [1] * 4]
        for t in range(4):
            order = np.random.default_rng((2, t)).permutation(n)
            dp = dm.dist[np.ix_(order, order)]
            assert counts[:, t].tolist() == [dense_greedy_colors(dp, lb)[1] for lb in sizes]
            for lb in sizes:
                cov = bd.greedy_box_cover(dm, lb, order)
                assert cov.colors[order].tolist() == dense_greedy_colors(dp, lb)[0].tolist()

    def test_each_listed_size_lists_its_near_sets(self):
        # sizes 1-3 on Sierpinski 3 under hop take near lists, 4-7 reach;
        # each listed size holds u's near set, ascending, in u's slice
        dm = bd.all_pairs(bd.generate_sierpinski(3).graph, bd.HOP)
        sizes = range(1, dm.diameter + 1)
        plan = covering._plan(dm, sizes)
        listed = [(b, e.step) for b, e in zip(sizes, plan) if type(e.step) is covering._SideLists]
        assert [b for b, _ in listed] == [1, 2, 3]
        for b, step in listed:
            assert len(step.start) == dm.n + 1 and step.start[-1] == step.cols.size
            for u in range(dm.n):
                near = np.flatnonzero((dm.dist[u] > 0) & (dm.dist[u] < b))
                assert step.cols[step.start[u] : step.start[u + 1]].tolist() == near.tolist()

    def test_off_diagonal_zero_refused(self):
        # no all_pairs matrix holds one; covering refuses it in every
        # distance type, before any size's step is chosen
        for n, extra, (u, v), dtype in [
            (70, 30, (10, 20), np.int16),
            (600, 300, (436, 379), np.int32),
            (600, 300, (436, 379), np.int64),
        ]:
            g = random_connected_graph(n, extra, seed=4)
            dist = bd.all_pairs(g, bd.HOP).dist.astype(dtype)
            dist[u, v] = dist[v, u] = 0
            dm = bd.DistanceMatrix(metric_kind=bd.HOP, dist=dist, diameter=int(dist.max()))
            with pytest.raises(ValueError, match="off-diagonal distance is 0"):
                bd.covering_counts(dm, [2, 3], trials=2, master_seed=0)

    def test_int16_and_int32_distances_match_dense_rule(self):
        # repulsion on a random graph fits int16; two adjacent hubs of 40
        # leaves each on a 30-node path from node 0, each force times 20 (a
        # 35 280 force), have a 40 640 diameter, which needs int32. Each is
        # walked by the reach rows alone, then by the lists alone, and both
        # follow the rule
        path = [(i, i + 1) for i in range(29)]
        leaves = [(hub, 30 + 40 * k + i) for k, hub in enumerate((10, 11)) for i in range(40)]
        hubs = bd.edge_repulsive_force(bd.Graph.from_edges(110, path + leaves))
        graphs = [
            bd.edge_repulsive_force(random_connected_graph(120, 60, seed=11)),
            bd.WeightedGraph(graph=hubs.graph, weights=hubs.weights * 20),
        ]
        for wg, dtype in zip(graphs, (np.int16, np.int32)):
            dm = bd.all_pairs(wg, bd.REPULSION)
            assert dm.dist.dtype == dtype
            sizes = bd.build_schedule(dm).values
            for limit, step in zip(SHORT_LIST_LIMITS, (covering._Reach, covering._SideLists)):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(covering, "_SHORT_LIST", limit)
                    plan = covering._plan(dm, sizes)
                    counts = bd.covering_counts(dm, sizes, trials=3, master_seed=5)
                assert {type(entry.step) for entry in plan if entry.walk.any()} == {step}
                assert_counts_follow_rule(dm, sizes, counts, 5)

    def test_one_call_mixes_every_list_step(self, monkeypatch):
        # Sierpinski 3 under hop at the default limit: near lists at sizes
        # 1-3, reach rows at 4-8; no node walks at 1 or 8, so a trial colors
        # neither
        dm = bd.all_pairs(bd.generate_sierpinski(3).graph, bd.HOP)
        sizes = list(range(1, dm.diameter + 2))
        plan = covering._plan(dm, sizes, trials=4)
        kinds = [type(e.step) is covering._Reach for e in plan]
        assert kinds == [False] * 3 + [True] * 5
        assert not plan[0].walk.any() and not plan[-1].walk.any()
        walked = []
        for step in (covering._SideLists, covering._Reach):
            def colors(self, order, colors=step.colors):
                walked.append(len(order))
                return colors(self, order)

            monkeypatch.setattr(step, "colors", colors)
        counts = bd.covering_counts(dm, sizes, trials=4, master_seed=3)
        assert len(walked) == 4 * 6 and 0 not in walked
        assert_counts_follow_rule(dm, sizes, counts, 3)
        order = np.random.default_rng(3).permutation(dm.n)
        dp = dm.dist[np.ix_(order, order)]
        for lb in sizes:
            cov = bd.greedy_box_cover(dm, lb, order)
            colors, count = dense_greedy_colors(dp, lb)
            assert cov.colors[order].tolist() == colors.tolist() and cov.box_count == count

    def test_karate_hop_takes_every_branch(self, karate):
        # no node walks at size 1 (every node isolated, N_B = n) or 6 (every
        # node universal, N_B = 1); near lists at 2, and at 4, where most
        # pairs are near but 34 nodes hold fewer than 48 per walked node
        dm = bd.all_pairs(karate, bd.HOP)
        plan = covering._plan(dm, [1, 2, 4, 6])
        assert not plan[0].walk.any() and plan[0].alone == dm.n
        assert not plan[3].walk.any() and plan[3].alone == 0
        assert type(plan[1].step) is type(plan[2].step) is covering._SideLists
        counts = bd.covering_counts(dm, [1, 2, 4, 6], trials=20, master_seed=8)
        for t in range(20):
            order = np.random.default_rng((8, t)).permutation(dm.n)
            dp = dm.dist[np.ix_(order, order)]
            expected = [dense_greedy_colors(dp, lb)[1] for lb in (1, 2, 4, 6)]
            assert counts[:, t].tolist() == expected

    def test_one_debug_line_per_size_not_per_trial(self, karate, caplog):
        # karate's 34 nodes take the bitset step; Sierpinski 3's 256 the
        # near lists, then the reach rows
        kar = bd.all_pairs(karate, bd.HOP)
        sier = bd.all_pairs(bd.generate_sierpinski(3).graph, bd.HOP)
        with caplog.at_level(logging.DEBUG, logger="boxdim.covering"):
            bd.covering_counts(kar, [1, 2, 4, 6], trials=5, master_seed=0)
            bd.covering_counts(sier, [2, 4, 7], trials=5, master_seed=0)
        lines = [r.getMessage() for r in caplog.records if r.name == "boxdim.covering"]
        assert len(lines) == 7
        assert all("bitset, 5 trials" in line for line in lines[:4])
        assert "0 nodes walked, 34 isolated" in lines[0]
        assert "0 nodes walked, 0 isolated" in lines[3]
        assert lines[4:] == [
            "box size 2: near side, 1272 list entries, 256 nodes walked, 0 isolated",
            "box size 4: reach, 19524 list entries, 256 nodes walked, 0 isolated",
            "box size 7: reach, 65118 list entries, 18 nodes walked, 0 isolated",
        ]

    @pytest.mark.parametrize("n", [41, 101])
    def test_isolated_and_universal_nodes_leave_the_walk(self, n):
        # on both sides of 64 nodes (the bitset lockstep, then the lists): a
        # star under hop at size 2, whose hub is closer than 2 to every node;
        # and a repulsion graph just above its smallest distance, where a node
        # on no smallest-distance pair has no node closer than the size
        star = bd.all_pairs(bd.Graph.from_edges(n, [(0, v) for v in range(1, n)]), bd.HOP)
        g = random_connected_graph(n, n, seed=n)
        rep = bd.all_pairs(bd.edge_repulsive_force(g), bd.REPULSION)
        low = int(bd.distinct_distances(rep)[0])
        paired = (rep.dist == low).any(axis=1)
        assert 0 < paired.sum() < n - 1
        for dm, b, walk, alone in [
            (star, 2, np.arange(n) > 0, 0),
            (rep, low + 1, paired, n - int(paired.sum())),
        ]:
            [entry] = covering._plan(dm, [b], trials=5)
            assert entry.walk.tolist() == walk.tolist() and entry.alone == alone
            counts = bd.covering_counts(dm, [b], trials=5, master_seed=n)
            for t in range(5):
                order = np.random.default_rng((n, t)).permutation(n)
                assert counts[0, t] == dense_greedy_colors(dm.dist[np.ix_(order, order)], b)[1]


@st.composite
def covering_cases(draw):
    n = draw(st.integers(2, 14))
    g = random_connected_graph(n, draw(st.integers(0, 2 * n)), seed=draw(st.integers(0, 10**6)))
    metric = draw(st.sampled_from([bd.HOP, bd.REPULSION]))
    dm = bd.all_pairs(bd.edge_repulsive_force(g) if metric == bd.REPULSION else g, metric)
    order = draw(st.permutations(range(n)))
    return dm, np.array(order), draw(st.integers(0, 1000))


@given(covering_cases(), st.sampled_from(SHORT_LIST_LIMITS))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_dense_rule(case, short_list):
    # box sizes: 1, every distance and one above it, and past the diameter,
    # so some sizes walk no node and the rest walk near lists or reach rows
    dm, order, seed = case
    sizes = all_box_sizes(dm)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "_SHORT_LIST", short_list)
        dp = dm.dist[np.ix_(order, order)]
        for lb in sizes:
            cov = bd.greedy_box_cover(dm, lb, order)
            colors, count = dense_greedy_colors(dp, lb)
            assert cov.colors[order].tolist() == colors.tolist()
            assert cov.box_count == count
        counts = bd.covering_counts(dm, sizes, trials=3, master_seed=seed)
    for t in range(3):
        order_t = np.random.default_rng((seed, t)).permutation(dm.n)
        dp = dm.dist[np.ix_(order_t, order_t)]
        assert counts[:, t].tolist() == [dense_greedy_colors(dp, lb)[1] for lb in sizes]


@given(
    n=st.one_of(st.integers(2, 70), st.sampled_from([63, 64, 65])),
    extra=st.integers(0, 140),
    graph_seed=st.integers(0, 10**6),
    metric=st.sampled_from([bd.HOP, bd.REPULSION]),
    master_seed=st.integers(0, 1000),
    short_list=st.sampled_from(SHORT_LIST_LIMITS + (covering._SHORT_LIST,)),
)
@example(n=63, extra=30, graph_seed=1, metric=bd.HOP, master_seed=5, short_list=0)
@example(n=64, extra=100, graph_seed=2, metric=bd.REPULSION, master_seed=6, short_list=10**9)
@example(n=65, extra=10, graph_seed=3, metric=bd.HOP, master_seed=7, short_list=0)
@example(n=70, extra=40, graph_seed=1, metric=bd.REPULSION, master_seed=8, short_list=covering._SHORT_LIST)
@settings(max_examples=30, deadline=None)
def test_each_step_matches_dense_rule(n, extra, graph_seed, metric, master_seed, short_list):
    # covering_counts forced through the list walk (with every size that has
    # a list entry through the reach rows, or through the lists, or at the
    # default limit, where one call takes both) and through the bitset
    # lockstep (which only graphs of at most 64 nodes can take), the latter
    # in trial blocks of 2, so the last is short
    g = random_connected_graph(n, extra, seed=graph_seed)
    dm = bd.all_pairs(bd.edge_repulsive_force(g) if metric == bd.REPULSION else g, metric)
    sizes = all_box_sizes(dm)
    trials = 3
    by_step = []
    for limit in WORD_NODE_LIMITS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covering, "_WORD_NODES", limit)
            mp.setattr(covering, "_TRIAL_BLOCK", 2)
            mp.setattr(covering, "_SHORT_LIST", short_list)
            plan = covering._plan(dm, sizes, trials)
            kinds = {type(entry.step) for entry in plan if entry.walk.any()}
            if n <= limit:
                expected = {np.ndarray}
            elif short_list in SHORT_LIST_LIMITS:
                expected = {covering._Reach if short_list == 0 else covering._SideLists}
            else:  # the default limit: the near lists, the reach rows or both
                expected = kinds & {covering._Reach, covering._SideLists}
            assert kinds == (expected if any(entry.walk.any() for entry in plan) else set())
            by_step.append(bd.covering_counts(dm, sizes, trials, master_seed))
    assert np.array_equal(by_step[0], by_step[1])
    for t in range(trials):
        order_t = np.random.default_rng((master_seed, t)).permutation(dm.n)
        dp = dm.dist[np.ix_(order_t, order_t)]
        assert by_step[0][:, t].tolist() == [dense_greedy_colors(dp, lb)[1] for lb in sizes]
