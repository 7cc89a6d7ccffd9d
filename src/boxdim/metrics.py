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
changes nothing. Column s holds the distances from source s, and a round only
ever combines a column with itself, so the columns split into slices that
relax apart: on graphs of at least ``_FORK_NODES`` nodes, one slice per
worker, each on a forked process, all writing into one matrix in a shared
anonymous mapping. The matrix is held in the narrowest of uint8, int16, int32
and int64 that provably holds every value the kernel forms, a bound set by one
Bellman–Ford from node 0 (see ``_matrix_dtype``): uint8 for hops on at most
254 nodes, or whenever node 0 lies at most 126 hops from every node.
Whole-matrix scans, such as ``distinct_distances``, read it a block of rows at
a time and copy none of it.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, is_connected
from .pool import fork_map, usable_workers

logger = logging.getLogger(__name__)

HOP = "hop"
REPULSION = "repulsion"

# all_pairs refuses larger matrices: 1 GB as the uint8 of short-eccentricity
# hops, 2 GB as int16, and up to 8 GB as repulsion's int32 or int64
MAX_CELLS = 10**9

# A round pushes the cells that fell in the last round while their arcs number
# fewer than n * w / _PUSH_CELLS, as a pull round's work grows with the n * w
# cells of a slice w columns wide, whatever fell. One pushed arc cost about as
# much as 10-25 cells of a pull round (Sierpinski 5 and a 64 x 64 grid, hop
# and repulsion, every round pushed against every round pulled, 2-core
# x86-64); the pinned round counts and the memory of the push state were set
# at 48.
_PUSH_CELLS = 48
# graphs of fewer nodes relax in one slice in this process: two forked
# slices took 19 against 15 ms on a random 2048-node graph under hop and 35
# against 30 ms under repulsion, broke about even at 2560 nodes, and won on
# the 2859-node graph (24 against 30 ms under hop) and Sierpinski 5 (44
# against 68 ms) (min of 5 calls, 2-core x86-64)
_FORK_NODES = 2560
# matrix cells a pull round lowers at once (at most 256 KB, which stays in cache)
_PULL_CELLS = 1 << 15
# arcs per row whose neighbour rows a pull round gathers at once; one gather
# per arc took Sierpinski 5 from 68 to 83 ms under hop and from 132 to 158 ms
# under repulsion, and a 64 x 64 grid from 575 to 687 ms under hop (min of 3
# calls, one slice, 2-core x86-64)
_PULL_ARCS = 16
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
    Where forked workers relaxed it, it lies in a shared anonymous mapping.
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


def _eccentricity(indptr, indices, weights) -> int:
    """The smallest force from node 0 to the node farthest from it, by a
    Bellman–Ford over the CSR arrays that relaxes, each round, the arcs out
    of the nodes that fell in the last one (a breadth-first search under
    unit weights)."""
    dist = np.full(indptr.size - 1, np.iinfo(np.int64).max)
    dist[0] = 0
    frontier = np.zeros(1, dtype=indptr.dtype)
    while frontier.size:
        slot, deg = _arc_slots(indptr, frontier)
        force = np.repeat(dist[frontier], deg) + weights[slot]
        head = indices[slot]
        lower = force < dist[head]
        head = head[lower]
        np.minimum.at(dist, head, force[lower])
        frontier = np.unique(head)
    return int(dist.max())


def _matrix_dtype(top: int) -> np.dtype:
    """The first of uint8, int16, int32 and int64 that holds ``top``.

    ``_repulsion_matrix`` passes ``unreached + wmax``, where ``unreached`` is
    one more than the smaller of ``2 * ecc`` and ``(n - 1) * wmax``, ecc
    being node 0's smallest-force eccentricity: both bound every distance,
    the first by the triangle inequality through node 0, the second as a
    path's at most ``n - 1`` arcs. Cells start at ``unreached`` and only
    fall, so every sum the kernel forms, a cell plus an arc weight, is at
    most ``top``.
    """
    for dtype in (np.uint8, np.int16, np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"path sums up to {top} would overflow int64")


def _shared_matrix(n: int, dtype: np.dtype) -> np.ndarray:
    """An n x n matrix in an anonymous shared mapping, which forked workers
    write into; a mapping that cannot be made raises MemoryError."""
    import mmap  # here, so that importing the package does not pay for it

    size = n * n * dtype.itemsize
    try:
        buf = mmap.mmap(-1, size)
    except OSError as exc:
        raise MemoryError(f"cannot map the {size}-byte distance matrix: {exc}") from exc
    return np.frombuffer(buf, dtype=dtype).reshape(n, n)


def _repulsion_matrix(indptr, indices, weights, slices: int = 1) -> tuple[np.ndarray, list]:
    """Smallest-force distances of a connected weighted CSR graph, relaxed
    from all sources at once; unit weights give hops.

    Returns the (n, n) matrix in ``_matrix_dtype`` and, for each of
    ``slices`` column slices, relaxed on its own forked worker when there
    are several, its rounds, how many of them pulled, and its largest cell.
    """
    n = indptr.size - 1
    weights = np.asarray(weights, dtype=np.int64)
    wmax = int(weights.max(initial=0))
    bound = (n - 1) * wmax
    # Bellman–Ford's sums reach at most n * wmax; past int64 the path bound
    # stands alone, and _matrix_dtype refuses it
    if n * wmax <= np.iinfo(np.int64).max:
        bound = min(bound, 2 * _eccentricity(indptr, indices, weights))
    unreached = bound + 1
    weights = weights.astype(_matrix_dtype(unreached + wmax))
    groups = _degree_groups(indptr, indices, weights)
    # one slice fills private memory, which may take huge pages (a shared
    # mapping took 4.7 against 1.2 ms to fill Sierpinski 5's 16 MB)
    mat = _shared_matrix(n, weights.dtype) if slices > 1 else np.empty((n, n), weights.dtype)
    cuts = [(n * i // slices, n * (i + 1) // slices) for i in range(slices)]
    state = (mat, indptr, indices, weights, groups, unreached)
    return mat, fork_map(_relax, cuts, slices, state)


def _relax(mat, indptr, indices, weights, groups, unreached, cut) -> tuple[int, int, int]:
    """Fill columns ``a:z`` of ``mat`` with the distances to sources a to
    z - 1, in place; returns the rounds, how many pulled, and the largest cell.

    Each round runs whichever step is cheaper for the cells that fell in the
    last one, weighed against the slice's n * (z - a) cells; the rounds stop
    when one changes nothing. A column only ever reads itself, so slices
    relax apart.
    """
    a, z = cut
    n = mat.shape[0]
    cells = n * (z - a)
    degree = np.diff(indptr)
    flat = mat.reshape(-1)
    mat[:, a:z] = unreached
    # the cells that fell in the last round, as flat indices while they are few
    keys: np.ndarray | None = np.arange(a, z) * (n + 1)
    flat[keys] = 0
    cost = int(indptr[z] - indptr[a])  # arcs to push from those cells
    rounds = pulled = 0
    while cost:
        rounds += 1
        if keys is not None and cost * _PUSH_CELLS < cells:
            keys = _push_round(indptr, indices, weights, flat, keys)
            cost = int(degree[keys // n].sum())
        else:
            pulled += 1
            cost, keys = _pull_round(groups, mat, a, z)
    return rounds, pulled, int(mat[:, a:z].max(initial=0))


def _push_round(indptr, indices, weights, flat, keys) -> np.ndarray:
    """Relax the arcs out of the cells at ``keys``; returns the cells that fell.

    A cell's arcs lead to cells of its own column, so a slice's keys stay in it.
    """
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


def _pull_round(groups, mat, a, z) -> tuple[int, np.ndarray | None]:
    """Lower each row's columns ``a:z``, in place, to its neighbours' plus the arc weight.

    Returns how many arcs leave the cells that fell, and those cells as flat
    indices of ``mat`` while their arcs number fewer than
    ``n * (z - a) / _PUSH_CELLS``, else None.
    """
    n = mat.shape[0]
    cols = mat[:, a:z]
    width = z - a
    step = max(1, _PULL_CELLS // width)
    cost = 0
    # an empty first entry, so that a round where nothing fell still joins keys
    fell: list[np.ndarray] | None = [np.empty(0, dtype=np.int64)]
    for nodes, nbrs, wts in groups:
        # every row of a group has d arcs, so a block's cells that fell
        # leave d times their number of arcs
        d = nbrs.shape[1]
        for b in range(0, nodes.size, step):
            rows = nodes[b : b + step]
            low = cols[rows]
            # the neighbours' rows are read as they were before the block,
            # _PULL_ARCS of each row's arcs at a time
            for c in range(0, d, _PULL_ARCS):
                near = cols[nbrs[b : b + step, c : c + _PULL_ARCS]]
                near += wts[b : b + step, c : c + _PULL_ARCS, None]
                np.minimum(low, near.min(axis=1), out=low)
            down = low < cols[rows]
            cols[rows] = low
            # a flat count and a flat nonzero: per-row counts and a 2-d nonzero
            # took almost half of a Sierpinski 5 round
            fallen = int(np.count_nonzero(down))
            if not fallen:
                continue
            cost += d * fallen
            if fell is not None and cost * _PUSH_CELLS < n * width:
                i, j = np.divmod(np.flatnonzero(down), width)
                fell.append(rows[i] * n + (j + a))
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


def all_pairs(g: Graph | WeightedGraph, metric: str | None = None, workers: int = 1) -> DistanceMatrix:
    """All-pairs distance matrix under the chosen metric.

    Both metrics run one relaxation from all sources at once, in rounds that
    each pull or push; hops relax unit weights. The full symmetric matrix is
    stored densely, in the narrowest integer type that provably holds it, and
    is returned as it is, not widened. Graphs of at least ``_FORK_NODES``
    nodes split its columns into one slice per worker, at most one per
    usable CPU, each relaxed on a forked process; a worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool``. The matrix is the same
    for any worker count.
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
    slices = usable_workers(workers) if n >= _FORK_NODES else 1
    mat, runs = _repulsion_matrix(graph.indptr, graph.indices, weights, slices)
    mat.setflags(write=False)
    diameter = max(top for _, _, top in runs)
    logger.debug(
        "all-pairs %s: n = %d, diameter %d, %d slice%s: %s, %.3f s",
        kind, n, diameter, slices, "s" if slices > 1 else "",
        "; ".join(f"{r} rounds ({p} pulled, {r - p} pushed)" for r, p, _ in runs),
        time.perf_counter() - start,
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
