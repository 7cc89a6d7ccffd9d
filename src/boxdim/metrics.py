"""Edge repulsion weights and exact integer shortest-path metrics.

Two node-to-node metrics are supported:

* ``hop``: classic shortest-path length, counting edges.
* ``repulsion``: each edge carries a repulsive force equal to the product of
  its endpoint degrees; the distance between two nodes is the minimum total
  force over all connecting paths. High-degree hubs are thus pushed far apart
  even when directly linked.

Repulsion weights are one int64 per stored arc, aligned with the graph's CSR
``indices``. All distances are computed and stored as exact integers, so
downstream threshold tests never hit floating-point ties. ``all_pairs`` has one
implementation per metric. Hops come from one level-synchronous breadth-first
search from every source at once, in numpy on the CSR arrays, with the reached
set held as an n x n bit matrix: a level with a large frontier ORs each node's
neighbours' frontier bits, and a level with a small one pushes its (node,
source) pairs along their edges, so long-diameter graphs do not pay a matrix
pass per level (the direction-switching idea of Beamer et al., SC 2012). Pushed
levels are written into the matrix cell by cell; bit-parallel ones are held
bit-sliced and added in one pass. Repulsion distances are relaxed from every
source at once in exact int64 rounds over the same arrays, with the same
per-round choice: a round with many cells to relax pulls, each row taking the
minimum of itself and its neighbours' rows plus the arc weight, and a round
with few pushes the cells that fell in the last round along their arcs. The
rounds stop when one changes nothing.
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

# all_pairs refuses larger matrices (8 GB of int64)
MAX_CELLS = 10**9

# A hop level pushes its (node, source) pairs along their edges while it has
# fewer than n * n / _PUSH_CELLS of them to push: one push costs about as much
# as this many cells of a bit-parallel level, whose work (ORing every node's
# neighbour rows, counting the new bits, its share of the matrix pass) grows
# with n * n whatever its frontier. Repulsion rounds push by the same rule.
_PUSH_CELLS = 48
# Bit-parallel levels are held bit-sliced, plane k holding bit k of the
# level's offset from a base, and added into the matrix at the end or when
# the offset would pass a byte: one matrix pass per 255 levels, not per level,
# for at most 8 extra bit matrices (an eighth of the int64 matrix).
_PLANES = 8
# bit-matrix cells unpacked at once (a 4 MB block once widened to int64)
_BLOCK_CELLS = 1 << 19
# frontier words gathered at once by a bit-parallel level (a 4 MB block)
_GATHER_WORDS = 1 << 19
# matrix cells a pull round lowers at once (a 256 KB block, which stays in cache)
_PULL_CELLS = 1 << 15
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


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

    ``dist`` is a read-only (n, n) int64 array; for the repulsion metric the
    diameter is the largest smallest-force path in the graph.
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


def _hop_matrix(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Hop distances of a connected CSR graph, by BFS from all sources at once.

    Returns the (n, n) int64 matrix, the number of levels (the diameter) and
    how many of them ran bit-parallel. Each level runs whichever step is
    cheaper for its frontier; both yield the same next level.
    """
    n = indptr.size - 1
    degree = np.diff(indptr)
    by_degree = _degree_groups(indptr, indices)
    mat = np.zeros((n, n), dtype=np.int64)
    planes: list[np.ndarray] = []
    base = 0
    # row v, bit s: v has been reached from s; little-endian words, so bit s
    # is bit s of the row's bytes on every host
    reached = np.zeros((n, (n + 63) >> 6), dtype="<u8")
    nodes = np.arange(n, dtype=np.int64)
    _set_bits(reached, nodes, nodes)
    # the frontier as (node, source) pairs, kept while it is small, and as bits
    pairs: tuple[np.ndarray, np.ndarray] | None = (nodes, nodes)
    bits = None
    cells, level, dense = n, 0, 0
    while cells < n * n:
        level += 1
        if pairs is not None and int(degree[pairs[0]].sum()) * _PUSH_CELLS < n * n:
            pairs = _push_level(indptr, indices, pairs, reached, mat, level)
            bits = None
            count = pairs[0].size
        else:
            dense += 1
            if bits is None:
                bits = np.zeros_like(reached)
                _set_bits(bits, *pairs)
            bits = _or_level(by_degree, bits, reached)
            base = _hold_level(mat, planes, base, bits, level)
            count = _count_bits(bits)
            # list the level as pairs only if, at the mean degree, it would be pushed
            pairs = _bit_pairs(bits) if count * indices.size * _PUSH_CELLS < n**3 else None
        cells += count
    _add_planes(mat, planes, base)
    return mat, level, dense


def _degree_groups(indptr, arcs) -> list[tuple[np.ndarray, np.ndarray]]:
    """(nodes, their arcs' entries of ``arcs`` as rows) for each degree, so a
    level or round runs on equal-length rows."""
    degree = np.diff(indptr)
    groups = []
    for d in np.unique(degree):
        nodes = np.flatnonzero(degree == d)
        groups.append((nodes, arcs[indptr[nodes, None] + np.arange(d)]))
    return groups


def _set_bits(bits, w, s) -> None:
    """Set bit s of row w for each pair; pairs may share a word."""
    np.bitwise_or.at(bits.reshape(-1), w * bits.shape[1] + (s >> 6), _BIT[s & 63])


def _arc_slots(indptr, u) -> tuple[np.ndarray, np.ndarray]:
    """The arc index of every arc of each node in u, node by node, and each node's degree."""
    deg = indptr[u + 1] - indptr[u]
    ends = np.cumsum(deg)
    # the k-th arc is arc k - (ends - deg)[i] of node u[i]
    slot = np.repeat(indptr[u] + deg - ends, deg)
    slot += np.arange(slot.size)
    return slot, deg


def _push_level(indptr, indices, pairs, reached, mat, level):
    """Next frontier from pushing each (node, source) pair along its edges."""
    u, s = pairs
    n = indptr.size - 1
    words = reached.shape[1]
    slot, deg = _arc_slots(indptr, u)
    w = indices[slot]
    s = np.repeat(s, deg)
    unreached = (reached.reshape(-1)[w * words + (s >> 6)] & _BIT[s & 63]) == 0
    key = (w * n + s)[unreached]
    key.sort()
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    w, s = np.divmod(key, n)
    _set_bits(reached, w, s)
    mat.reshape(-1)[key] = level
    return w, s


def _or_level(by_degree, bits, reached):
    """Next frontier as each node's OR of its neighbours' frontier rows."""
    words = reached.shape[1]
    out = np.empty_like(reached)
    for nodes, nbrs in by_degree:
        # gather at most _GATHER_WORDS frontier words at once, or one node's
        step = max(1, _GATHER_WORDS // (nbrs.shape[1] * words))
        for a in range(0, nodes.size, step):
            out[nodes[a : a + step]] = np.bitwise_or.reduce(bits[nbrs[a : a + step]], axis=1)
    out &= ~reached
    reached |= out
    return out


def _row_blocks(n: int) -> list[slice]:
    rows = max(1, _BLOCK_CELLS // n)
    return [slice(a, a + rows) for a in range(0, n, rows)]


def _unpacked(bits, rows: slice) -> np.ndarray:
    """The rows of a bit matrix as 0/1 bytes, one per column."""
    return np.unpackbits(bits[rows].view(np.uint8), axis=1, count=bits.shape[0], bitorder="little")


def _count_bits(bits) -> int:
    return sum(int(np.count_nonzero(_unpacked(bits, rows))) for rows in _row_blocks(bits.shape[0]))


def _hold_level(mat, planes: list, base: int, bits, level: int) -> int:
    """Set the level's bits in the planes of its offset from base; returns the base.

    The planes are first added into the matrix and restarted if the offset
    would not fit in _PLANES bits.
    """
    if level - base >= 1 << _PLANES:
        _add_planes(mat, planes, base)
        planes.clear()
        base = level - 1
    offset = level - base
    planes += [np.zeros_like(bits) for _ in range(offset.bit_length() - len(planes))]
    for k, plane in enumerate(planes):
        if offset >> k & 1:
            plane |= bits
    return base


def _add_planes(mat, planes, base: int) -> None:
    """Add the levels held in the planes into the matrix, a block of rows at a time."""
    if not planes:
        return
    for rows in _row_blocks(mat.shape[0]):
        offset = _unpacked(planes[0], rows)
        for k, plane in enumerate(planes[1:], start=1):
            offset |= _unpacked(plane, rows) << k
        block = mat[rows]
        block += offset
        if base:
            # offset 0 is a cell no level of these planes reached
            block += (offset != 0) * base


def _bit_pairs(bits) -> tuple[np.ndarray, np.ndarray]:
    """The (row, bit) pairs of the set bits, reading each set word only."""
    rows, cols = np.nonzero(bits)
    hit = np.unpackbits(bits[rows, cols].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    k, b = np.nonzero(hit)
    return rows[k], cols[k] * 64 + b


def _repulsion_matrix(indptr, indices, weights) -> tuple[np.ndarray, int, int]:
    """Smallest-force distances of a connected weighted CSR graph, relaxed
    from all sources at once.

    Returns the (n, n) int64 matrix, the number of rounds and how many of
    them pulled. Each round runs whichever step is cheaper for the cells that
    fell in the last one; the rounds stop when one changes nothing.
    """
    n = indptr.size - 1
    degree = np.diff(indptr)
    groups = list(zip(_degree_groups(indptr, indices), _degree_groups(indptr, weights)))
    # unreached is n**3: paths sum below it, and MAX_CELLS keeps it plus a weight far below 2**63
    mat = np.full((n, n), n**3, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    fell = np.zeros((n, n), dtype=bool)
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
            cost = _pull_round(groups, mat, fell, degree)
            keys = np.flatnonzero(fell) if cost * _PUSH_CELLS < n * n else None
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
    return np.unique(key)


def _pull_round(groups, mat, fell, degree) -> int:
    """Lower each row, in place, to its neighbours' rows plus the arc weight.

    Marks the cells that fell in ``fell`` and returns how many arcs leave them.
    """
    n = mat.shape[0]
    step = max(1, _PULL_CELLS // n)
    cost = 0
    for (nodes, nbrs), (_, wts) in groups:
        for a in range(0, nodes.size, step):
            rows = nodes[a : a + step]
            low = mat[rows]
            for j in range(nbrs.shape[1]):
                np.minimum(low, mat[nbrs[a : a + step, j]] + wts[a : a + step, j, None], out=low)
            down = low < mat[rows]
            fell[rows] = down
            mat[rows] = low
            cost += int(np.count_nonzero(down, axis=1) @ degree[rows])
    return cost


def _resolve(g: Graph | WeightedGraph, metric: str | None):
    """Pick (graph, arc weights or None for hops, metric_kind) for either input type."""
    if isinstance(g, WeightedGraph):
        metric = metric or REPULSION
        if metric == REPULSION:
            return g.graph, g.weights, REPULSION
        if metric == HOP:
            return g.graph, None, HOP
    elif isinstance(g, Graph):
        metric = metric or HOP
        if metric == HOP:
            return g, None, HOP
        if metric == REPULSION:
            raise TypeError("repulsion metric needs a WeightedGraph; call edge_repulsive_force first")
    else:
        raise TypeError(f"expected Graph or WeightedGraph, got {type(g).__name__}")
    raise ValueError(f"unknown metric {metric!r}")


def all_pairs(g: Graph | WeightedGraph, metric: str | None = None) -> DistanceMatrix:
    """All-pairs distance matrix under the chosen metric.

    Hops run one breadth-first search from all sources at once; repulsion
    distances are relaxed from all sources at once, in rounds that each pull
    or push. The full symmetric matrix is stored densely.
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
    if kind == HOP:
        mat, diameter, dense = _hop_matrix(graph.indptr, graph.indices)
        steps = f", {diameter} levels ({dense} bit-parallel, {diameter - dense} pushed)"
    else:
        mat, rounds, pulled = _repulsion_matrix(graph.indptr, graph.indices, weights)
        diameter = int(mat.max())
        steps = f", {rounds} rounds ({pulled} pulled, {rounds - pulled} pushed)"
    mat.setflags(write=False)
    logger.debug(
        "all-pairs %s: n = %d, diameter %d%s, %.3f s",
        kind, n, diameter, steps, time.perf_counter() - start,
    )
    return DistanceMatrix(metric_kind=kind, dist=mat, diameter=diameter)


def distinct_distances(dm: DistanceMatrix) -> np.ndarray:
    """Sorted unique off-diagonal distance values."""
    values = np.unique(dm.dist)
    # on a connected graph only the diagonal is zero
    return values[1:] if values.size and values[0] == 0 else values
