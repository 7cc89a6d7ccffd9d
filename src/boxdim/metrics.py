"""Edge repulsion weights and exact integer shortest-path metrics.

Two node-to-node metrics are supported:

* ``hop``: classic shortest-path length, counting edges.
* ``repulsion``: each edge carries a repulsive force equal to the product of
  its endpoint degrees; the distance between two nodes is the minimum total
  force over all connecting paths. High-degree hubs are thus pushed far apart
  even when directly linked.

Hops are the repulsion model with every force set to 1, so both metrics run
one kernel. Repulsion weights are one int64 per stored arc, aligned with the
graph's CSR ``indices``. All distances are computed and stored as exact
integers, so downstream threshold tests never hit floating-point ties.
``all_pairs`` relaxes the distances from every source at once, in numpy rounds
over the CSR arrays. A round with many cells to relax pulls: each row takes the
minimum of itself and its neighbours' rows plus the arc weight. A round with
few pushes the cells that fell in the last round along their arcs, so
long-diameter graphs do not pay a matrix pass per round (the direction switch
of Beamer et al., SC 2012). A pull round lowers a block of rows of one degree
at a time, so the arcs leaving the cells that fell, which the switch weighs,
are that degree times one flat count of the block. The rounds stop when one
changes nothing. The matrix is held in the narrowest of uint8, int16, int32
and int64 that provably holds every value the kernel forms, a bound set by
one breadth-first search from node 0 (see ``_matrix_dtype``): uint8 for hops
on at most 254 nodes, or whenever node 0 lies at most 126 hops from every
node. Whole-matrix scans, such as ``distinct_distances``, read it a block of
rows at a time and copy none of it.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, is_connected

logger = logging.getLogger(__name__)

HOP = "hop"
REPULSION = "repulsion"

# all_pairs refuses larger matrices: 1 GB as the uint8 of short-eccentricity
# hops, 2 GB as int16, and up to 8 GB as repulsion's int32 or int64
MAX_CELLS = 10**9

# A round pushes the cells that fell in the last round while their arcs number
# fewer than n * n / _PUSH_CELLS, as a pull round's work grows with n * n
# whatever fell. One pushed arc cost about as much as 10-25 cells of a pull
# round (Sierpinski 5 and a 64 x 64 grid, hop and repulsion, every round
# pushed against every round pulled, 2-core x86-64); the pinned round counts
# and the memory of the push state were set at 48.
_PUSH_CELLS = 48
# matrix cells a pull round lowers at once (at most 256 KB, which stays in cache)
_PULL_CELLS = 1 << 15
# matrix cells a scan of the whole matrix reads at once (a block's flat
# indices take at most 2 MB)
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """A graph whose edges carry positive integer repulsion forces.

    ``weights`` is a read-only int64 array with one weight per stored arc,
    aligned with ``graph.indices``; both arcs of an edge carry its force.
    """

    graph: Graph
    weights: np.ndarray

    @property
    def forces(self) -> np.ndarray:
        """The force of each edge, in ``graph.edges`` order."""
        return self.weights[self.graph.arc_rows < self.graph.indices]


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric all-pairs distances under one metric, plus the diameter.

    ``dist`` is a read-only (n, n) array of exact integers, in the narrowest
    of uint8, int16, int32 and int64 that holds the kernel's sums (see
    ``_matrix_dtype``); widen it before arithmetic that could pass that type.
    For the repulsion metric the diameter is the largest smallest-force path.
    """

    metric_kind: str
    dist: np.ndarray
    diameter: int

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def edge_repulsive_force(g: Graph) -> WeightedGraph:
    """Weight every edge with the product of its endpoint degrees.

    Requires a connected graph with at least one edge; structure is unchanged.
    """
    if g.edge_count == 0:
        raise ValueError("no edges to weight")
    if not is_connected(g):
        raise ValueError("graph must be connected; extract the largest component first")
    deg = np.diff(g.indptr)
    weights = deg[g.arc_rows] * deg[g.indices]
    weights.setflags(write=False)
    return WeightedGraph(graph=g, weights=weights)


def _degree_groups(indptr, indices, weights) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(nodes, their neighbours and arc weights as rows of the same arc slots)
    for each degree, so a round runs on equal-length rows."""
    degree = np.diff(indptr)
    groups = []
    for d in np.unique(degree):
        nodes = np.flatnonzero(degree == d)
        slots = indptr[nodes, None] + np.arange(d)
        groups.append((nodes, indices[slots], weights[slots]))
    return groups


def _arc_slots(indptr, u) -> tuple[np.ndarray, np.ndarray]:
    """The arc index of every arc of each node in u, node by node, and each node's degree."""
    deg = indptr[u + 1] - indptr[u]
    ends = np.cumsum(deg)
    # the k-th arc is arc k - (ends - deg)[i] of node u[i]
    slot = np.repeat(indptr[u] + deg - ends, deg)
    slot += np.arange(slot.size)
    return slot, deg


def _eccentricity(indptr, indices) -> int:
    """Hops from node 0 to the node farthest from it, by a breadth-first
    search over the CSR arrays, a whole frontier at a time."""
    seen = np.zeros(indptr.size - 1, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=indptr.dtype)
    ecc = -1
    while frontier.size:
        ecc += 1
        slot, _ = _arc_slots(indptr, frontier)
        frontier = np.unique(indices[slot])
        frontier = frontier[~seen[frontier]]
        seen[frontier] = True
    return ecc


def _matrix_dtype(top: int) -> np.dtype:
    """The first of uint8, int16, int32 and int64 that holds ``top``.

    ``_repulsion_matrix`` passes ``(hops + 1) * wmax + 1``, where ``hops`` is
    the smaller of ``n - 1`` and ``2 * ecc``, ecc being the eccentricity of
    node 0: both bound the hop diameter. Every shortest path is no heavier
    than a fewest-hop path, of at most ``hops`` arcs; so ``hops * wmax + 1``
    marks a cell unreached, every cell stays at or below it, and every cell
    plus an arc weight at or below ``top``.
    """
    for dtype in (np.uint8, np.int16, np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"path sums up to {top} would overflow int64")


def _repulsion_matrix(indptr, indices, weights) -> tuple[np.ndarray, int, int]:
    """Smallest-force distances of a connected weighted CSR graph, relaxed
    from all sources at once; unit weights give hops.

    Returns the (n, n) matrix in ``_matrix_dtype``, the number of rounds and
    how many of them pulled. Each round runs whichever step is cheaper for
    the cells that fell in the last one; the rounds stop when one changes
    nothing.
    """
    n = indptr.size - 1
    degree = np.diff(indptr)
    wmax = int(weights.max(initial=0))
    unreached = min(n - 1, 2 * _eccentricity(indptr, indices)) * wmax + 1
    weights = weights.astype(_matrix_dtype(unreached + wmax))
    groups = _degree_groups(indptr, indices, weights)
    mat = np.full((n, n), unreached, dtype=weights.dtype)
    np.fill_diagonal(mat, 0)
    # the cells that fell in the last round, as flat indices while they are few
    keys: np.ndarray | None = np.arange(n) * (n + 1)
    cost = indices.size  # arcs to push from those cells
    rounds = pulled = 0
    while cost:
        rounds += 1
        if keys is not None and cost * _PUSH_CELLS < n * n:
            keys = _push_round(indptr, indices, weights, mat.reshape(-1), keys)
            cost = int(degree[keys // n].sum())
        else:
            pulled += 1
            cost, keys = _pull_round(groups, mat)
    return mat, rounds, pulled


def _push_round(indptr, indices, weights, flat, keys) -> np.ndarray:
    """Relax the arcs out of the cells at ``keys``; returns the cells that fell."""
    n = indptr.size - 1
    u, s = np.divmod(keys, n)
    slot, deg = _arc_slots(indptr, u)
    force = np.repeat(flat[keys], deg) + weights[slot]
    key = indices[slot] * n + np.repeat(s, deg)
    lower = force < flat[key]
    key = key[lower]
    np.minimum.at(flat, key, force[lower])
    # sorted and deduplicated by hand: np.unique hashes first, 0.8 ms a call on
    # 8 k keys, which was half the time of a 4096-node path's pushed rounds
    key.sort()
    return key[np.diff(key, prepend=-1) != 0]


def _pull_round(groups, mat) -> tuple[int, np.ndarray | None]:
    """Lower each row, in place, to its neighbours' rows plus the arc weight.

    Returns how many arcs leave the cells that fell, and those cells as flat
    indices while their arcs number fewer than ``n * n / _PUSH_CELLS``, else None.
    """
    n = mat.shape[0]
    step = max(1, _PULL_CELLS // n)
    cost = 0
    # an empty first entry, so that a round where nothing fell still joins keys
    fell: list[np.ndarray] | None = [np.empty(0, dtype=np.int64)]
    for nodes, nbrs, wts in groups:
        # every row of a group has d arcs, so a block's cells that fell
        # leave d times their number of arcs
        d = nbrs.shape[1]
        for a in range(0, nodes.size, step):
            rows = nodes[a : a + step]
            low = mat[rows]
            for j in range(d):
                np.minimum(low, mat[nbrs[a : a + step, j]] + wts[a : a + step, j, None], out=low)
            down = low < mat[rows]
            mat[rows] = low
            # a flat count and a flat nonzero: per-row counts and a 2-d nonzero
            # took almost half of a Sierpinski 5 round
            fallen = int(np.count_nonzero(down))
            if not fallen:
                continue
            cost += d * fallen
            if fell is not None and cost * _PUSH_CELLS < n * n:
                i, j = np.divmod(np.flatnonzero(down), n)
                fell.append(rows[i] * n + j)
            else:
                fell = None
    return cost, None if fell is None else np.concatenate(fell, dtype=np.int64)


def _resolve(g: Graph | WeightedGraph, metric: str | None):
    """Pick (graph, arc weights, metric_kind) for either input type; hops weigh every arc 1."""
    if isinstance(g, WeightedGraph):
        metric = metric or REPULSION
        if metric == REPULSION:
            return g.graph, g.weights, REPULSION
        g = g.graph
    elif isinstance(g, Graph):
        metric = metric or HOP
        if metric == REPULSION:
            raise TypeError("repulsion metric needs a WeightedGraph; call edge_repulsive_force first")
    else:
        raise TypeError(f"expected Graph or WeightedGraph, got {type(g).__name__}")
    if metric == HOP:
        return g, np.ones_like(g.indices), HOP
    raise ValueError(f"unknown metric {metric!r}")


def all_pairs(g: Graph | WeightedGraph, metric: str | None = None) -> DistanceMatrix:
    """All-pairs distance matrix under the chosen metric.

    Both metrics run one relaxation from all sources at once, in rounds that
    each pull or push; hops relax unit weights. The full symmetric matrix is
    stored densely, in the narrowest integer type that provably holds it, and
    is returned as it is, not widened.
    Refuses matrices above ``MAX_CELLS`` cells; analyze a subsample of larger
    graphs. Logs one debug line per call.
    """
    graph, weights, kind = _resolve(g, metric)
    n = graph.node_count
    if n == 0:
        raise ValueError("empty graph")
    if n * n > MAX_CELLS:
        raise ValueError(
            f"distance matrix would need {n * n} cells (cap {MAX_CELLS}); subsample the graph"
        )
    if not is_connected(graph):
        raise ValueError("graph must be connected; extract the largest component first")
    start = time.perf_counter()
    mat, rounds, pulled = _repulsion_matrix(graph.indptr, graph.indices, weights)
    mat.setflags(write=False)
    diameter = int(mat.max())
    logger.debug(
        "all-pairs %s: n = %d, diameter %d, %d rounds (%d pulled, %d pushed), %.3f s",
        kind, n, diameter, rounds, pulled, rounds - pulled, time.perf_counter() - start,
    )
    return DistanceMatrix(metric_kind=kind, dist=mat, diameter=diameter)


def row_blocks(n: int) -> list[tuple[int, int]]:
    """The row ranges ``(a, z)`` that split an n x n matrix into blocks of at
    most ``_BLOCK_CELLS`` cells, or of one row where a row holds more."""
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    return [(a, min(a + rows, n)) for a in range(0, n, rows)]


def distinct_distances(dm: DistanceMatrix) -> np.ndarray:
    """Sorted unique off-diagonal distance values.

    The matrix is read a row block at a time, so no copy of it is made.
    """
    values = np.empty(0, dtype=dm.dist.dtype)
    for a, z in row_blocks(dm.n):
        values = np.union1d(values, np.unique(dm.dist[a:z]))
    # on a connected graph only the diagonal is zero
    return values[1:] if values.size and values[0] == 0 else values
