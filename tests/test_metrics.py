import logging
import re
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
    dijkstra_row,
    floyd_warshall,
    graph_weighted_edges,
    random_connected_graph,
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


def matrix_dtype(n: int, wmax: int) -> np.dtype:
    """The type the matrix must come in: the first of int16, int32 and int64
    that holds n * wmax + 1, the largest sum the kernel can form."""
    top = n * wmax + 1
    return np.dtype(np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64)


def kernel_all_pairs(arg: bd.Graph | bd.WeightedGraph, metric: str, setting: str):
    """``all_pairs`` with the push limit of the setting applied; checks the
    kernel's round counts and the matrix type for that call."""
    push_cells = REPULSION_SETTINGS[setting]
    repulsion_matrix = metrics._repulsion_matrix
    runs = []

    def recorded(indptr, indices, weights):
        out = repulsion_matrix(indptr, indices, weights)
        runs.append(out[1:])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_PUSH_CELLS", push_cells)
        mp.setattr(metrics, "_repulsion_matrix", recorded)
        dm = bd.all_pairs(arg, metric)
    ((rounds, pulled),) = runs
    wmax = int(arg.weights.max(initial=0)) if metric == bd.REPULSION else 1
    assert dm.dist.dtype == matrix_dtype(dm.n, wmax) and not dm.dist.flags.writeable
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
        g = bd.Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            bd.edge_repulsive_force(g)


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

    def test_repulsion_needs_weighted_graph(self, example6):
        with pytest.raises(TypeError, match="WeightedGraph"):
            bd.all_pairs(example6, bd.REPULSION)


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

    def test_disconnected_rejected(self):
        g = bd.Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            bd.all_pairs(g, bd.HOP)

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
            arg = bd.edge_repulsive_force(g) if metric == bd.REPULSION else g
            dm = bd.all_pairs(arg, metric)
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
            r"all-pairs hop: n = 65, diameter 64, (\d+) rounds "
            r"\((\d+) pulled, (\d+) pushed\), \d+\.\d{3} s",
            lines[0],
        )
        assert hop and int(hop[2]) + int(hop[3]) == int(hop[1]) > 0
        # end edges weigh 1 * 2, the 62 inner ones 2 * 2
        rep = re.fullmatch(
            r"all-pairs repulsion: n = 65, diameter 252, (\d+) rounds "
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


def huge_forces() -> bd.WeightedGraph:
    """A 4-node path built directly with edge forces near 2**31."""
    g = path_graph(4)
    force = {(0, 1): 2**31 - 1, (1, 2): 2**31 - 7, (2, 3): 3}
    ends = zip(g.arc_rows.tolist(), g.indices.tolist())
    return bd.WeightedGraph(graph=g, weights=np.array([force[min(e), max(e)] for e in ends]))


@pytest.mark.parametrize(
    "make, dtype",
    [
        # n * wmax + 1 = 181 * 180 + 1 = 32581, the largest star under 2**15
        (lambda: weighted(star_graph(180)), np.int16),
        # 182 * 181 + 1 = 32943
        (lambda: weighted(star_graph(181)), np.int32),
        (huge_forces, np.int64),
    ],
    ids=["star 180", "star 181", "forces near 2**31"],
)
def test_matrix_type_boundaries(make, dtype):
    wg = make()
    g, n = wg.graph, wg.graph.node_count
    rows = csr_rows(g, wg.weights)
    expected = [dijkstra_row(rows, s, n) for s in range(n)]
    assert expected == floyd_warshall(n, zip(*g.edges.T.tolist(), wg.forces.tolist()))
    for setting in REPULSION_SETTINGS:
        dm = kernel_all_pairs(wg, bd.REPULSION, setting)
        assert dm.dist.dtype == dtype
        assert dm.dist.tolist() == expected


def test_hop_path_129_is_int16():
    assert bd.all_pairs(path_graph(129), bd.HOP).dist.dtype == np.int16


class TestDistinctDistances:
    def test_worked_example_repulsion(self, example6_repulsion):
        assert bd.distinct_distances(example6_repulsion).tolist() == [2, 4, 6, 10, 12, 16, 18]

    def test_worked_example_hop(self, example6_hop):
        assert bd.distinct_distances(example6_hop).tolist() == [1, 2, 3, 4]

    def test_single_edge(self):
        g = bd.Graph.from_edges(2, [(0, 1)])
        dm = bd.all_pairs(g, bd.HOP)
        assert bd.distinct_distances(dm).tolist() == [1]


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 16))
    seed = draw(st.integers(0, 10**6))
    extra = draw(st.integers(0, 20))
    return random_connected_graph(n, extra, seed=seed)


@given(connected_graphs(), st.sampled_from([bd.HOP, bd.REPULSION]))
@settings(max_examples=40, deadline=None)
def test_metric_axioms(g, metric):
    arg = bd.edge_repulsive_force(g) if metric == bd.REPULSION else g
    dm = bd.all_pairs(arg, metric)
    d = dm.dist
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
