import concurrent.futures
import errno
import logging
import mmap
import re
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxdim as bd
from boxdim import metrics

from conftest import (
    bfs_row,
    csr_rows,
    die_on_slice,
    dijkstra_row,
    floyd_warshall,
    graph_weighted_edges,
    random_connected_graph,
    set_usable_cpus,
    time_limit,
)

# push limits that run every round by pushing the cells that fell, the
# default mix, and every round by pulling
REPULSION_SETTINGS = {"pushed": 0, "mixed": metrics._PUSH_CELLS, "pulled": 10**18}


def path_graph(n: int) -> bd.Graph:
    return bd.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def grid_graph(k: int) -> bd.Graph:
    right = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    down = [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    return bd.Graph.from_edges(k * k, right + down)


def star_graph(leaves: int) -> bd.Graph:
    return bd.Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def weighted(g: bd.Graph) -> bd.WeightedGraph:
    """The repulsion-weighted graph, also for a single node, which has no edge to weight."""
    if g.edge_count == 0:
        return bd.WeightedGraph(graph=g, weights=np.zeros(0, dtype=np.int64))
    return bd.edge_repulsive_force(g)


def centred_path(n: int) -> bd.Graph:
    """A path of odd n nodes with node 0 at its centre, so node 0's
    eccentricity is half the diameter."""
    half = n // 2
    order = [*range(half, 0, -1), 0, *range(half + 1, n)]
    return bd.Graph.from_edges(n, [tuple(sorted(e)) for e in zip(order, order[1:])])


def matrix_dtype(g: bd.Graph, weights: np.ndarray) -> np.dtype:
    """The type the matrix must come in: the first of uint8, int16, int32 and
    int64 that holds min(2 * ecc, (n - 1) * wmax) + 1 + wmax, the largest sum
    the kernel can form, where ecc is node 0's eccentricity under the arc
    weights and wmax the largest of them; both terms of the min bound every
    distance."""
    n = g.node_count
    wmax = int(weights.max(initial=0))
    ecc = max(dijkstra_row(csr_rows(g, weights), 0, n))
    top = min(2 * ecc, (n - 1) * wmax) + 1 + wmax
    return next(np.dtype(t) for t in (np.uint8, np.int16, np.int32, np.int64)
                if top <= np.iinfo(t).max)


def kernel_all_pairs(arg: bd.Graph | bd.WeightedGraph, metric: str, setting: str):
    """``all_pairs`` with the push limit of the setting applied; checks the
    kernel's round counts and the matrix type for that call."""
    push_cells = REPULSION_SETTINGS[setting]
    repulsion_matrix = metrics._repulsion_matrix
    runs = []

    def recorded(indptr, indices, weights, slices):
        out = repulsion_matrix(indptr, indices, weights, slices)
        runs.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_PUSH_CELLS", push_cells)
        mp.setattr(metrics, "_repulsion_matrix", recorded)
        dm = bd.all_pairs(arg, metric)
    # one call, of one slice
    [[(rounds, pulled, _)]] = runs
    graph = arg.graph if isinstance(arg, bd.WeightedGraph) else arg
    weights = arg.weights if metric == bd.REPULSION else np.ones_like(graph.indices)
    assert dm.dist.dtype == matrix_dtype(graph, weights) and not dm.dist.flags.writeable
    if push_cells == 0:
        assert pulled == 0
    elif push_cells == 10**18:
        assert pulled == rounds
    return dm


def dijkstra_rows(g: bd.Graph) -> list[list]:
    n, rows = g.node_count, csr_rows(g, weighted(g).weights)
    return [dijkstra_row(rows, s, n) for s in range(n)]


class TestEdgeRepulsiveForce:
    def test_worked_example_forces(self, example6):
        wg = bd.edge_repulsive_force(example6)
        # labels are 1..6 in id order; edge 5-6 has force 2, edge 1-3 force 6
        force = dict(zip(map(tuple, wg.graph.edges.tolist()), wg.forces.tolist()))
        assert force[(4, 5)] == 2
        assert force[(0, 2)] == 6
        assert sorted(wg.forces) == [2, 4, 4, 6, 6, 6]

    def test_two_node_path(self):
        g = bd.Graph.from_edges(2, [(0, 1)])
        wg = bd.edge_repulsive_force(g)
        assert wg.forces.tolist() == [1]

    def test_force_is_degree_product(self):
        g = random_connected_graph(20, 25, seed=3)
        wg = bd.edge_repulsive_force(g)
        deg = bd.degrees(g)
        for (u, v), f in zip(g.edges, wg.forces):
            assert f == deg[u] * deg[v]

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="no edges to weight"):
            bd.edge_repulsive_force(bd.Graph.from_edges(1, []))

    def test_disconnected_rejected(self):
        # each component's edges weigh their degree products; all_pairs,
        # not the weighting, refuses the graph
        g = bd.Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (3, 5), (5, 6)])
        wg = bd.edge_repulsive_force(g)
        force = dict(zip(map(tuple, g.edges.tolist()), wg.forces.tolist()))
        assert force == {(0, 1): 1, (2, 3): 3, (3, 4): 3, (3, 5): 6, (5, 6): 2}
        with pytest.raises(ValueError, match="graph must be connected"):
            bd.all_pairs(wg)


class TestWeightedGraph:
    # the path 0-1-2-3 stores six arcs: 0>1, 1>0, 1>2, 2>1, 2>3, 3>2
    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1, 1], "not one per arc"),
            (np.ones((6, 1), dtype=np.int64), "not one per arc"),
            (np.full(6, 1.5), "must be integers"),
            (np.ones(6, dtype=bool), "must be integers"),
            ([-1, -1, 1, 1, 1, 1], "must be positive"),
            ([1, 1, 0, 0, 1, 1], "must be positive"),
            (np.full(6, 2**63, dtype=np.uint64), "must fit in int64"),
            ([1, 5, 1, 1, 1, 1], "same weight"),
        ],
        ids=["short", "2-d", "float", "bool", "negative", "zero", "past-int64", "asymmetric"],
    )
    def test_bad_weights_refused(self, weights, message):
        with pytest.raises(ValueError, match=message):
            bd.WeightedGraph(graph=path_graph(4), weights=weights)

    def test_held_as_read_only_int64(self):
        mine = np.array([1, 1, 998, 998, 1, 1], dtype=np.int32)
        wg = bd.WeightedGraph(graph=path_graph(4), weights=mine)
        assert wg.weights.dtype == np.int64 and not wg.weights.flags.writeable
        assert mine.flags.writeable and wg.weights.tolist() == mine.tolist()
        own = np.array([1, 1, 2, 2, 1, 1])
        wg = bd.WeightedGraph(graph=path_graph(4), weights=own)
        own[:] = 7  # a writable input is copied, so the graph keeps its weights
        assert wg.weights.tolist() == [1, 1, 2, 2, 1, 1]

    def test_degree_products_pass(self, karate):
        wg = bd.edge_repulsive_force(karate)
        again = bd.WeightedGraph(graph=karate, weights=wg.weights)
        assert again.weights is wg.weights  # read-only int64 already: kept, not copied


class TestShortestPaths:
    # rows of all_pairs against the per-source Python oracles
    def test_worked_example_row(self, example6):
        wg = bd.edge_repulsive_force(example6)
        row = bd.all_pairs(wg).dist[2]  # node labeled "3"
        assert row[5] == 12  # 3-4-5-6
        assert row[2] == 0
        assert row.tolist() == dijkstra_row(csr_rows(example6, wg.weights), 2, 6)

    def test_worked_example_dist_1_to_5(self, example6_repulsion):
        assert example6_repulsion.dist[0, 4] == 16  # 1-3-4-5

    def test_self_distance_zero(self, karate):
        dm = bd.all_pairs(karate, bd.HOP)
        for s in (0, 7, 33):
            assert dm.dist[s, s] == 0
            assert dm.dist[s].tolist() == bfs_row(csr_rows(karate), s, karate.node_count)

    def test_rows_match_all_pairs(self, karate):
        wg = bd.edge_repulsive_force(karate)
        dm = bd.all_pairs(wg)
        rows = csr_rows(karate, wg.weights)
        for s in (0, 5, 21):
            assert dm.dist[s].tolist() == dijkstra_row(rows, s, karate.node_count)

    def test_plain_graph_weighed_under_repulsion(self, example6, karate):
        # all_pairs weighs a plain Graph by degree products itself, and
        # defaults it to hops
        for g in (
            example6,
            karate,
            bd.generate_sierpinski(3).graph,
            random_connected_graph(40, 30, seed=5),
        ):
            own = bd.all_pairs(g, bd.REPULSION)
            given = bd.all_pairs(bd.edge_repulsive_force(g), bd.REPULSION)
            assert own.metric_kind == bd.REPULSION
            assert own.dist.dtype == given.dist.dtype
            assert own.dist.tobytes() == given.dist.tobytes()
            assert own.diameter == given.diameter
            hop = bd.all_pairs(g)
            assert hop.metric_kind == bd.HOP
            assert hop.dist.tobytes() == bd.all_pairs(g, bd.HOP).dist.tobytes()


class TestAllPairs:
    def test_worked_example_diameter(self, example6_repulsion):
        assert example6_repulsion.diameter == 18

    def test_worked_example_hop_diameter(self, example6_hop):
        assert example6_hop.diameter == 4

    def test_triangle_hop(self):
        g = bd.load_edge_list("1 2\n2 3\n3 1\n")
        dm = bd.all_pairs(g, bd.HOP)
        off = dm.dist[~np.eye(3, dtype=bool)]
        assert set(off.tolist()) == {1}
        assert dm.diameter == 1

    @pytest.mark.parametrize(
        "g, error, message",
        [
            (bd.Graph.from_edges(0, []), ValueError, "empty graph"),
            ("1 2\n", TypeError, "expected Graph or WeightedGraph, got str"),
        ],
        ids=["no-nodes", "not-a-graph"],
    )
    def test_refused_inputs(self, g, error, message):
        with pytest.raises(error, match=message):
            bd.all_pairs(g, bd.HOP)

    def test_disconnected_rejected(self):
        # two equal halves, node 0 isolated, and node 0 in the larger
        # component, under both metrics and every push limit
        cases = [(4, [(0, 1), (2, 3)]), (3, [(1, 2)]), (5, [(0, 1), (1, 2), (3, 4)])]
        for n, edges in cases:
            g = bd.Graph.from_edges(n, edges)
            wg = bd.edge_repulsive_force(g)
            for push_cells in REPULSION_SETTINGS.values():
                for arg, metric in [(g, bd.HOP), (g, bd.REPULSION), (wg, bd.REPULSION)]:
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(metrics, "_PUSH_CELLS", push_cells)
                        with pytest.raises(ValueError, match="graph must be connected"):
                            bd.all_pairs(arg, metric)

    @pytest.mark.parametrize("metric", [bd.HOP, bd.REPULSION])
    def test_disconnected_refused_before_the_matrix(self, metric):
        # two 1500-node paths: node 0's column finds the second unreached
        # before anything of n x n cells is allocated; the column's state
        # takes about 100 bytes a node
        n = 3000
        g = bd.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1) if i != n // 2 - 1])
        if metric == bd.REPULSION:
            g = bd.WeightedGraph(graph=g, weights=np.full(g.indices.size, 4))
        with pytest.raises(ValueError, match="graph must be connected"):
            bd.all_pairs(g, metric)  # untraced: the first call may import numpy modules
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="graph must be connected"):
                bd.all_pairs(g, metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n // 20

    def test_no_workers_refused_on_a_one_slice_graph(self, karate):
        # 34 nodes relax in one slice in this process, so workers was never read
        with pytest.raises(bd.ArgumentError, match="workers must be an integer of at least 1, got 0"):
            bd.all_pairs(karate, bd.HOP, workers=0)

    def test_cell_cap(self, karate):
        with pytest.raises(ValueError, match="subsample"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "MAX_CELLS", 100)
                bd.all_pairs(karate, bd.HOP)

    def test_sums_past_int64_rejected(self):
        g = path_graph(3)
        wg = bd.WeightedGraph(graph=g, weights=np.full(g.indices.size, 2**62))
        with pytest.raises(ValueError, match="overflow int64"):
            bd.all_pairs(wg)

    def test_matrix_is_read_only(self, example6_hop):
        with pytest.raises(ValueError):
            example6_hop.dist[0, 1] = 99

    @pytest.mark.parametrize("metric", [bd.HOP, bd.REPULSION])
    def test_against_floyd_warshall_oracle(self, metric):
        for seed in range(12):
            g = random_connected_graph(3 + seed * 4 % 46, 2 + seed * 3, seed=seed)
            dm = bd.all_pairs(g, metric)
            oracle = floyd_warshall(g.node_count, graph_weighted_edges(g, metric))
            assert dm.dist.tolist() == oracle

    def test_pure_python_rows_match(self):
        # the numpy kernel must give exactly the rows of the bfs_row and
        # dijkstra_row oracles, both fed from the CSR arrays
        g = random_connected_graph(25, 30, seed=11)
        hop = bd.all_pairs(g, bd.HOP)
        rep = bd.all_pairs(bd.edge_repulsive_force(g), bd.REPULSION)
        nbrs = csr_rows(g)
        assert hop.dist.tolist() == [bfs_row(nbrs, s, g.node_count) for s in range(g.node_count)]
        assert rep.dist.tolist() == dijkstra_rows(g)

    def test_one_debug_line_per_call_not_per_level(self, caplog):
        g = path_graph(65)
        with caplog.at_level(logging.DEBUG, logger="boxdim.metrics"):
            bd.all_pairs(g, bd.HOP)
            bd.all_pairs(bd.edge_repulsive_force(g), bd.REPULSION)
        lines = [r.getMessage() for r in caplog.records if r.name == "boxdim.metrics"]
        assert len(lines) == 2
        hop = re.fullmatch(
            r"all-pairs hop: n = 65, diameter 64, 1 slice: (\d+) rounds "
            r"\((\d+) pulled, (\d+) pushed\), \d+\.\d{3} s",
            lines[0],
        )
        assert hop and int(hop[2]) + int(hop[3]) == int(hop[1]) > 0
        # end edges weigh 1 * 2, the 62 inner ones 2 * 2
        rep = re.fullmatch(
            r"all-pairs repulsion: n = 65, diameter 252, 1 slice: (\d+) rounds "
            r"\((\d+) pulled, (\d+) pushed\), \d+\.\d{3} s",
            lines[1],
        )
        assert rep and int(rep[2]) + int(rep[3]) == int(rep[1]) > 0


FIXED_SHAPES = {
    "single node": lambda: bd.Graph.from_edges(1, []),
    "single edge": lambda: path_graph(2),
    "path 63": lambda: path_graph(63),
    "path 64": lambda: path_graph(64),
    "path 65": lambda: path_graph(65),
    "path 129": lambda: path_graph(129),
    "star 100": lambda: star_graph(99),
    "K10": lambda: bd.Graph.from_edges(10, combinations(range(10), 2)),
    "grid 20x20": lambda: grid_graph(20),
    **{
        f"sierpinski {level}": (lambda level=level: bd.generate_sierpinski(level).graph)
        for level in range(4)
    },
}


# The hop shapes keep the ids they had when hops ran a bit-parallel BFS, whose
# every-level-dense setting is now every round pulled.
HOP_SETTING_IDS = {"pushed": "pushed", "mixed": "mixed", "pulled": "bit-parallel"}


@pytest.mark.parametrize("setting", list(REPULSION_SETTINGS), ids=HOP_SETTING_IDS.get)
@pytest.mark.parametrize("shape", list(FIXED_SHAPES))
def test_hop_kernel_fixed_shapes(shape, setting):
    # 63 to 129 nodes, one hub, a clique, a long grid and the benchmark
    # family, under every kernel setting
    g = FIXED_SHAPES[shape]()
    dm = kernel_all_pairs(g, bd.HOP, setting)
    n, nbrs = g.node_count, csr_rows(g)
    assert dm.dist.tolist() == [bfs_row(nbrs, s, n) for s in range(n)]


@pytest.mark.parametrize("setting", list(REPULSION_SETTINGS))
@pytest.mark.parametrize("shape", list(FIXED_SHAPES))
def test_repulsion_kernel_fixed_shapes(shape, setting):
    g = FIXED_SHAPES[shape]()
    assert kernel_all_pairs(weighted(g), bd.REPULSION, setting).dist.tolist() == dijkstra_rows(g)


@st.composite
def kernel_graphs(draw):
    # random graphs, long paths in a random node order, and a hub joined to
    # every node: the shapes where pulling or pushing alone runs long
    n = draw(st.integers(2, 140))
    seed = draw(st.integers(0, 10**6))
    shape = draw(st.sampled_from(["random", "path", "hub"]))
    if shape == "path":
        order = np.random.default_rng(seed).permutation(n).tolist()
        return bd.Graph.from_edges(n, [tuple(sorted(e)) for e in zip(order, order[1:])])
    g = random_connected_graph(n, draw(st.integers(0, 2 * n)), seed=seed)
    if shape == "hub":
        edges = set(map(tuple, g.edges.tolist())) | {(0, v) for v in range(1, n)}
        g = bd.Graph.from_edges(n, sorted(edges))
    return g


@given(kernel_graphs(), st.sampled_from(list(REPULSION_SETTINGS)))
@settings(max_examples=40, deadline=None)
def test_hop_kernel_matches_oracles(g, setting):
    dm = kernel_all_pairs(g, bd.HOP, setting)
    n, nbrs = g.node_count, csr_rows(g)
    assert dm.dist.tolist() == [bfs_row(nbrs, s, n) for s in range(n)]
    assert dm.dist.tolist() == floyd_warshall(n, graph_weighted_edges(g, bd.HOP))


@given(kernel_graphs(), st.sampled_from(list(REPULSION_SETTINGS)))
@settings(max_examples=40, deadline=None)
def test_repulsion_kernel_matches_oracles(g, setting):
    dm = kernel_all_pairs(weighted(g), bd.REPULSION, setting)
    assert dm.dist.tolist() == dijkstra_rows(g)
    assert dm.dist.tolist() == floyd_warshall(g.node_count, graph_weighted_edges(g, bd.REPULSION))


def path_forces(*forces: int) -> bd.WeightedGraph:
    """A path, from node 0 at one end, built directly with the given edge forces."""
    g = path_graph(len(forces) + 1)
    ends = zip(g.arc_rows.tolist(), g.indices.tolist())
    return bd.WeightedGraph(graph=g, weights=np.array([forces[min(e)] for e in ends]))


def star_forces(*forces: int) -> bd.WeightedGraph:
    """A star, from its hub, node 0, built directly with the given edge forces."""
    g = star_graph(len(forces))
    ends = zip(g.arc_rows.tolist(), g.indices.tolist())
    return bd.WeightedGraph(graph=g, weights=np.array([forces[max(e) - 1] for e in ends]))


def hops(g: bd.Graph) -> bd.WeightedGraph:
    """The graph with every arc weighing 1, the weights the hop metric runs on."""
    return bd.WeightedGraph(graph=g, weights=np.ones_like(g.indices))


@pytest.mark.parametrize(
    "make, metric, dtype",
    [
        # node 0 at one end: n - 1 bounds the diameter, and the largest sum is n + 1
        (lambda: hops(path_graph(254)), bd.HOP, np.uint8),
        (lambda: hops(path_graph(255)), bd.HOP, np.int16),
        # node 0 at the centre: twice its eccentricity, 252, is the diameter
        (lambda: hops(centred_path(253)), bd.HOP, np.uint8),
        (lambda: hops(centred_path(255)), bd.HOP, np.int16),
        # a star from its hub (eccentricity 1) sums up to 3 * leaves + 1
        (lambda: hops(star_graph(299)), bd.HOP, np.uint8),
        (lambda: weighted(star_graph(84)), bd.REPULSION, np.uint8),
        (lambda: weighted(star_graph(85)), bd.REPULSION, np.int16),
        # from one end of a path of forces (x, 1), (n - 1) * wmax = 2x is the
        # smaller bound: 3 * 10922 + 1 = 32767; 3 * 10923 + 1 = 32770
        (lambda: path_forces(10922, 1), bd.REPULSION, np.int16),
        (lambda: path_forces(10923, 1), bd.REPULSION, np.int32),
        # from the hub of a star of forces (x, 5, 1), 2 * ecc = 2x is
        (lambda: star_forces(10922, 5, 1), bd.REPULSION, np.int16),
        (lambda: star_forces(10923, 5, 1), bd.REPULSION, np.int32),
        # 3 * 715827882 + 1 = 2**31 - 1
        (lambda: path_forces(715827882, 1), bd.REPULSION, np.int32),
        (lambda: path_forces(715827883, 1), bd.REPULSION, np.int64),
        (lambda: path_forces(2**31 - 1, 2**31 - 7, 3), bd.REPULSION, np.int64),
    ],
    ids=[
        "hop path 254", "hop path 255", "hop centred path 253", "hop centred path 255",
        "hop star 299", "star 84", "star 85", "forces 10922", "forces 10923",
        "hub forces 10922", "hub forces 10923", "forces 715827882", "forces 715827883",
        "forces near 2**31",
    ],
)
def test_matrix_type_boundaries(make, metric, dtype):
    wg = make()
    g, n = wg.graph, wg.graph.node_count
    rows = csr_rows(g, wg.weights)
    expected = [dijkstra_row(rows, s, n) for s in range(n)]
    assert expected == floyd_warshall(n, zip(*g.edges.T.tolist(), wg.forces.tolist()))
    for setting in REPULSION_SETTINGS:
        dm = kernel_all_pairs(g if metric == bd.HOP else wg, metric, setting)
        assert dm.dist.dtype == dtype
        assert dm.dist.tolist() == expected


def test_centred_path_reaches_twice_the_eccentricity():
    # the hop diameter bound 2 * ecc is tight, and the kernel's largest sum
    # 2 * 126 + 2 = 254 still fits uint8
    dm = bd.all_pairs(centred_path(253), bd.HOP)
    assert dm.dist.dtype == np.uint8
    assert max(dm.dist[0]) == 126 and dm.diameter == 252


# (rounds, pulled) of the kernel on fixed shapes under every push limit, as
# run when a pull round still marked its fallen cells in an n x n mask
PINNED_ROUNDS = {
    ("path 129", bd.HOP): {"pushed": (129, 0), "mixed": (129, 41), "pulled": (129, 129)},
    ("grid 20x20", bd.HOP): {"pushed": (39, 0), "mixed": (38, 26), "pulled": (38, 38)},
    ("grid 20x20", bd.REPULSION): {"pushed": (41, 0), "mixed": (39, 35), "pulled": (38, 38)},
    ("sierpinski 3", bd.HOP): {"pushed": (8, 0), "mixed": (6, 5), "pulled": (6, 6)},
    ("sierpinski 3", bd.REPULSION): {"pushed": (9, 0), "mixed": (8, 7), "pulled": (7, 7)},
}


@pytest.mark.parametrize("shape, metric", list(PINNED_ROUNDS))
def test_rounds_pinned(shape, metric):
    g = FIXED_SHAPES[shape]()
    w = weighted(g).weights if metric == bd.REPULSION else np.ones_like(g.indices)
    for setting, push_cells in REPULSION_SETTINGS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_PUSH_CELLS", push_cells)
            _, [(rounds, pulled, _)] = metrics._repulsion_matrix(g.indptr, g.indices, w)
        assert (rounds, pulled) == PINNED_ROUNDS[shape, metric][setting]


def reference_pull_round(groups, mat, degree):
    """A pull round as first written (oracle): each block's fallen cells are
    counted row by row against their degrees and found by a 2-d nonzero."""
    n = mat.shape[0]
    step = max(1, metrics._PULL_CELLS // n)
    cost = 0
    fell = []
    for nodes, nbrs, wts in groups:
        for a in range(0, nodes.size, step):
            rows = nodes[a : a + step]
            low = mat[rows]
            for j in range(nbrs.shape[1]):
                np.minimum(low, mat[nbrs[a : a + step, j]] + wts[a : a + step, j, None], out=low)
            down = low < mat[rows]
            mat[rows] = low
            cost += int(np.count_nonzero(down, axis=1) @ degree[rows])
            if fell is not None and cost * metrics._PUSH_CELLS < n * n:
                i, j = np.nonzero(down)
                fell.append(rows[i] * n + j)
            else:
                fell = None
    return cost, None if fell is None else np.concatenate(fell, dtype=np.int64)


# a hub of 99 leaves, and random graphs whose nodes have mixed degrees
PULL_SHAPES = {
    "star 100": lambda: star_graph(99),
    **{
        f"random {n} nodes, seed {seed}": (
            lambda n=n, extra=extra, seed=seed: random_connected_graph(n, extra, seed=seed)
        )
        for n, extra, seed in [(60, 90, 1), (120, 40, 2), (140, 280, 3)]
    },
}


@pytest.mark.parametrize("pull_cells", [metrics._PULL_CELLS, 256], ids=["default blocks", "2-row blocks"])
@pytest.mark.parametrize("setting", list(REPULSION_SETTINGS))
@pytest.mark.parametrize("metric", [bd.HOP, bd.REPULSION])
@pytest.mark.parametrize("shape", list(PULL_SHAPES))
def test_pull_round_matches_reference(shape, metric, setting, pull_cells):
    # every round, from the first to the one that changes nothing, lowers the
    # same cells and reports the same arc count, as a Python int, and the
    # same fallen cells in the same order as the reference round
    g = PULL_SHAPES[shape]()
    n = g.node_count
    w = weighted(g).weights if metric == bd.REPULSION else np.ones_like(g.indices)
    groups = metrics._degree_groups(g.indptr, g.indices, w)
    mat = np.full((n, n), (n - 1) * int(w.max()) + 1, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    ref = mat.copy()
    rounds = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_PUSH_CELLS", REPULSION_SETTINGS[setting])
        mp.setattr(metrics, "_PULL_CELLS", pull_cells)
        cost = None
        while cost != 0:
            rounds += 1
            cost, keys = metrics._pull_round(groups, mat, 0, n)
            want_cost, want_keys = reference_pull_round(groups, ref, np.diff(g.indptr))
            assert type(cost) is int and cost == want_cost
            if want_keys is None:
                assert keys is None
            else:
                assert keys.dtype == np.int64 and keys.tolist() == want_keys.tolist()
            assert np.array_equal(mat, ref)
    assert rounds > 1
    assert mat.tolist() == (dijkstra_rows(g) if metric == bd.REPULSION else
                            [bfs_row(csr_rows(g), s, n) for s in range(n)])


def test_all_pairs_holds_little_beside_the_matrix():
    # no n x n mask of fallen cells: the kernel's working state stays small
    # next to the uint8 matrix of Sierpinski level 5
    g = bd.generate_sierpinski(5).graph
    tracemalloc.start()
    try:
        dm = bd.all_pairs(g, bd.HOP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dm.dist.dtype == np.uint8
    assert peak < 1.5 * dm.dist.nbytes


# mixed-degree random graphs, a hub and a grid, small enough for the
# Floyd–Warshall oracle; none has a node count divisible by 2 and 3 both,
# so three slices are of unequal widths
SLICE_SHAPES = {
    "random 50 nodes": lambda: random_connected_graph(50, 70, seed=4),
    "random 67 nodes": lambda: random_connected_graph(67, 20, seed=5),
    "star 40": lambda: star_graph(39),
    "grid 8x8": lambda: grid_graph(8),
}


def relaxed_in_cuts(arg, metric: str, cuts) -> bd.DistanceMatrix:
    """``all_pairs`` with the columns relaxed in the given slices, one after
    another in this process."""

    def in_cuts(fn, items, workers, state):
        return [fn(*state, cut) for cut in cuts]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "fork_map", in_cuts)
        return bd.all_pairs(arg, metric)


@pytest.mark.parametrize("metric", [bd.HOP, bd.REPULSION])
@pytest.mark.parametrize("shape", list(SLICE_SHAPES))
def test_column_slices_match_one_slice(shape, metric, monkeypatch, caplog):
    # under every push limit, two and three slices on forked workers, and
    # hand-cut slices of 1, about n / 2 and the rest in this process, give
    # the one-slice matrix and diameter, and that matrix is the oracle's
    g = SLICE_SHAPES[shape]()
    n = g.node_count
    arg = weighted(g) if metric == bd.REPULSION else g
    oracle = floyd_warshall(n, graph_weighted_edges(g, metric))
    set_usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(metrics, "_FORK_NODES", 1)
    for setting, push_cells in REPULSION_SETTINGS.items():
        one = kernel_all_pairs(arg, metric, setting)
        assert one.dist.tolist() == oracle
        monkeypatch.setattr(metrics, "_PUSH_CELLS", push_cells)
        sliced = [relaxed_in_cuts(arg, metric, [(0, 1), (1, n // 2 + 3), (n // 2 + 3, n)])]
        for workers in (2, 3):
            caplog.clear()
            # three workers outnumber the cores of a 2-core machine
            with time_limit(60), caplog.at_level(logging.DEBUG, logger="boxdim.metrics"):
                sliced.append(bd.all_pairs(arg, metric, workers))
            assert f"diameter {one.diameter}, {workers} slices: " in caplog.records[-1].getMessage()
        for dm in sliced:
            assert dm.dist.dtype == one.dist.dtype and not dm.dist.flags.writeable
            assert np.array_equal(dm.dist, one.dist) and dm.diameter == one.diameter


def test_dead_slice_worker_raises_instead_of_hanging(monkeypatch):
    set_usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(metrics, "_FORK_NODES", 1)
    die_on_slice(monkeypatch, 50)  # the second of 100 columns
    with time_limit(60), pytest.raises(BrokenProcessPool):
        bd.all_pairs(grid_graph(10), bd.HOP, workers=2)


def test_small_graph_starts_no_pool(karate, monkeypatch):
    # below _FORK_NODES the columns relax in one slice in this process
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    set_usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    dm = bd.all_pairs(karate, bd.HOP, workers=4)
    n, nbrs = karate.node_count, csr_rows(karate)
    assert dm.dist.tolist() == [bfs_row(nbrs, s, n) for s in range(n)]


def test_unmappable_matrix_raises_memory_error(monkeypatch):
    # the shared matrix of forked slices is a mapping; one that cannot be
    # made is refused as MemoryError, before any worker starts
    def failing(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    set_usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(metrics, "_FORK_NODES", 1)
    monkeypatch.setattr(mmap, "mmap", failing)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(MemoryError, match="cannot map the 10000-byte distance matrix"):
        bd.all_pairs(grid_graph(10), bd.HOP, workers=2)


class TestDistinctDistances:
    def test_worked_example_repulsion(self, example6_repulsion):
        assert bd.distinct_distances(example6_repulsion).tolist() == [2, 4, 6, 10, 12, 16, 18]

    def test_worked_example_hop(self, example6_hop):
        assert bd.distinct_distances(example6_hop).tolist() == [1, 2, 3, 4]

    def test_single_edge(self):
        g = bd.Graph.from_edges(2, [(0, 1)])
        dm = bd.all_pairs(g, bd.HOP)
        assert bd.distinct_distances(dm).tolist() == [1]

    @pytest.mark.parametrize("metric", [bd.HOP, bd.REPULSION])
    @pytest.mark.parametrize("block_cells", [metrics._BLOCK_CELLS, 105])
    @pytest.mark.parametrize("make, repulsion_dtype", [
        (lambda: bd.karate_club(), np.int16),
        (lambda: bd.generate_sierpinski(4).graph, np.int16),
        (lambda: random_connected_graph(600, 900, seed=5), np.int16),
        (lambda: cycle_and_matching(600, seed=3), np.uint8),
        (lambda: scaled_forces(random_connected_graph(600, 900, seed=5), 997), np.int32),
    ], ids=["karate", "sierpinski 4", "random 600", "cycle 600", "random 600 forces x 997"])
    def test_row_blocks_match_one_unique(self, make, repulsion_dtype, block_cells, metric):
        # one block on karate and several on the larger graphs; at 105 cells,
        # blocks of 3 rows on karate, the last one short, and of 1 row on the rest
        g = make()
        dm = bd.all_pairs(g, metric)
        assert metric == bd.HOP or dm.dist.dtype == repulsion_dtype
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK_CELLS", block_cells)
            values = bd.distinct_distances(dm)
        expected = np.unique(dm.dist)[1:]
        assert values.dtype == dm.dist.dtype and values.tolist() == expected.tolist()

    def test_no_copy_of_the_matrix(self):
        # the blocks are read one at a time: the scan holds one block's sorted
        # copy, 256 KB (hop, uint8) or 512 KB (repulsion, int16) here, next to
        # the 16 or 32 MB matrix of Sierpinski level 5
        g = bd.generate_sierpinski(5).graph
        for metric, dtype in ((bd.HOP, np.uint8), (bd.REPULSION, np.int16)):
            dm = bd.all_pairs(g, metric)
            assert dm.dist.dtype == dtype
            tracemalloc.start()
            try:
                values = bd.distinct_distances(dm)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert values.tolist() == np.unique(dm.dist)[1:].tolist()
            assert peak < dm.dist.nbytes / 16


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64])
@pytest.mark.parametrize("size", [0, 1, 2, 1000])
def test_sorted_distinct_matches_unique(dtype, size):
    rng = np.random.default_rng(size)
    high = min(np.iinfo(dtype).max, 3 * size + 1)
    values = rng.integers(0, high, size=(size, 2), endpoint=True).astype(dtype)
    got = metrics.sorted_distinct(values)
    assert got.dtype == dtype and got.tolist() == np.unique(values).tolist()


def cycle_and_matching(n: int, seed: int) -> bd.Graph:
    """A cycle of n nodes (n even) plus a random perfect matching; its
    repulsion matrix is uint8 on up to some 3000 nodes."""
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    pairs = np.random.default_rng(seed).permutation(n).reshape(-1, 2)
    edges.update((min(u, v), max(u, v)) for u, v in pairs.tolist())
    return bd.Graph.from_edges(n, sorted(edges))


def scaled_forces(g: bd.Graph, factor: int) -> bd.WeightedGraph:
    """The graph's repulsion forces times ``factor``."""
    return bd.WeightedGraph(graph=g, weights=bd.edge_repulsive_force(g).weights * factor)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 16))
    seed = draw(st.integers(0, 10**6))
    extra = draw(st.integers(0, 20))
    return random_connected_graph(n, extra, seed=seed)


@given(connected_graphs(), st.sampled_from([bd.HOP, bd.REPULSION]))
@settings(max_examples=40, deadline=None)
def test_metric_axioms(g, metric):
    dm = bd.all_pairs(g, metric)
    # widened: the sums of the closure below can pass a uint8 matrix's range
    d = dm.dist.astype(np.int64)
    n = dm.n
    assert np.array_equal(d, d.T)
    assert (np.diag(d) == 0).all()
    assert dm.diameter == int(d.max())
    # triangle inequality via min-plus closure
    closure = np.min(d[:, :, None] + d[None, :, :], axis=1)
    assert (d <= closure).all()


@given(connected_graphs())
@settings(max_examples=30, deadline=None)
def test_repulsion_dominates_hop(g):
    hop = bd.all_pairs(g, bd.HOP)
    wg = bd.edge_repulsive_force(g)
    rep = bd.all_pairs(wg, bd.REPULSION)
    assert (rep.dist >= hop.dist).all()
    deg = bd.degrees(g)
    for u, v in g.edges:
        assert hop.dist[u, v] == 1
        assert rep.dist[u, v] <= deg[u] * deg[v]
