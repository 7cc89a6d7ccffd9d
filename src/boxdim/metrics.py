"""Edge repulsion weights and exact integer shortest-path metrics.

Two node-to-node metrics are supported:

* ``hop``: classic shortest-path length, counting edges.
* ``repulsion``: each edge carries a repulsive force equal to the product of
  its endpoint degrees; the distance between two nodes is the minimum total
  force over all connecting paths. High-degree hubs are thus pushed far apart
  even when directly linked.

Hops are the repulsion model with every force set to 1, so both metrics run
one kernel. Repulsion weights are one int64 per stored arc, aligned with the
graph's CSR ``indices``: ``all_pairs`` weighs a plain ``Graph`` by degree
products itself, and a ``WeightedGraph`` carries its own. All distances are
computed and stored as exact integers, so downstream threshold tests never
hit floating-point ties.
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
and int64 that provably holds every value the kernel forms, a bound set by node
0's column, which the kernel relaxes first (see ``_matrix_dtype``): uint8 for
hops on at most 254 nodes, or whenever node 0 lies at most 126 hops from every
node. A node that column never reaches refuses the graph as disconnected.
Whole-matrix scans read it a block of rows at a time and copy none of it:
``distinct_distances`` merges each sorted block's distinct values into the running ones.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
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
# matrix cells a pull round lowers at once (32 KB as uint8 to 256 KB as int64: in cache)
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

    ``weights`` holds one weight per stored arc, aligned with
    ``graph.indices``, and both arcs of an edge carry its force. It is
    checked when the graph is built: a shape unlike ``graph.indices``, a
    non-integer type, a weight of 0 or less or past int64, or an edge whose
    two arcs differ raises ``ValueError``. It is then held as read-only int64.
    """

    graph: Graph
    weights: np.ndarray

    def __post_init__(self):
        g, weights = self.graph, np.asarray(self.weights)
        if weights.shape != g.indices.shape:
            raise ValueError(f"weights of shape {weights.shape}, not one per arc {g.indices.shape}")
        if not np.issubdtype(weights.dtype, np.integer):
            raise ValueError(f"weights must be integers, got {weights.dtype}")
        if (weights > np.iinfo(np.int64).max).any():  # a uint64 the int64 cast would wrap
            raise ValueError("weights must fit in int64")
        # a private copy unless it is already read-only int64
        weights = weights.astype(np.int64, copy=weights.flags.writeable)
        if (weights <= 0).any():
            raise ValueError("weights must be positive")
        # sorted by (head, tail), the arcs fall in the order of their reverses
        if not np.array_equal(weights[np.lexsort((g.arc_rows, g.indices))], weights):
            raise ValueError("both arcs of an edge must carry the same weight")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

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

    Requires at least one edge; structure is unchanged. ``all_pairs`` weighs
    a plain ``Graph`` this way itself under repulsion, and refuses a
    disconnected one; call this to inspect or replace the forces.
    """
    if g.edge_count == 0:
        raise ValueError("no edges to weight")
    deg = np.diff(g.indptr)
    weights = deg[g.arc_rows] * deg[g.indices]
    weights.setflags(write=False)
    return WeightedGraph(graph=g, weights=weights)


def _degree_groups(indptr, indices, weights) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(nodes, their neighbours and arc weights as rows of the same arc slots)
    for each degree, so a round runs on equal-length rows."""
    degree = np.diff(indptr)
    groups = []
    for d in sorted_distinct(degree):
        nodes = np.flatnonzero(degree == d)
        slots = indptr[nodes, None] + np.arange(d)
        groups.append((nodes, indices[slots], weights[slots]))
    return groups


def _matrix_dtype(top: int) -> np.dtype:
    """The first of uint8, int16, int32 and int64 that holds ``top``.

    ``_repulsion_matrix`` passes ``unreached + wmax``, where ``unreached`` is
    one more than the smaller of ``2 * ecc`` and ``(n - 1) * wmax``, ecc
    being node 0's smallest-force eccentricity: both bound every distance,
    the first by the triangle inequality through node 0, the second as a
    path's at most ``n - 1`` arcs. Cells start at ``unreached`` and only
    fall, so every sum the kernel forms, a cell plus an arc weight, is at
    most ``top``. ecc is the largest cell of node 0's column, which the
    kernel relaxes first from the path bound alone, typed here too.
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

    Node 0's column is relaxed first: its largest cell types the matrix, and
    one left unreached refuses a disconnected graph before the matrix is
    allocated. Returns the (n, n) matrix in ``_matrix_dtype`` and, for each
    of ``slices`` column slices, relaxed on its own forked worker when there
    are several, its rounds, how many of them pulled, and its largest cell.
    """
    n = indptr.size - 1
    wmax = int(weights.max(initial=0))
    # a path of at most n - 1 arcs sums below far: a cell left there was never reached
    far = (n - 1) * wmax + 1
    weights = weights.astype(_matrix_dtype(far + wmax))
    col = np.empty((n, 1), weights.dtype)
    groups = _degree_groups(indptr, indices, weights)
    _, _, ecc = _relax(col, indptr, indices, weights, groups, far, (0, 1))
    if ecc == far:
        raise ValueError("graph must be connected; extract the largest component first")
    unreached = min(2 * ecc, far - 1) + 1
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
    n, stride = mat.shape
    cells = n * (z - a)
    degree = np.diff(indptr)
    flat = mat.reshape(-1)
    mat[:, a:z] = unreached
    # the cells that fell in the last round, as flat indices while they are few
    keys: np.ndarray | None = np.arange(a, z) * (stride + 1)
    flat[keys] = 0
    cost = int(indptr[z] - indptr[a])  # arcs to push from those cells
    rounds = pulled = 0
    while cost:
        rounds += 1
        if keys is not None and cost * _PUSH_CELLS < cells:
            keys = _push_round(indptr, indices, weights, mat, keys)
            cost = int(degree[keys // stride].sum())
        else:
            pulled += 1
            cost, keys = _pull_round(groups, mat, a, z)
    return rounds, pulled, int(mat[:, a:z].max(initial=0))


def _push_round(indptr, indices, weights, mat, keys) -> np.ndarray:
    """Relax the arcs out of the cells at ``keys``, flat indices of
    ``mat``; returns the cells that fell.

    A cell's arcs lead to cells of its own column, so a slice's keys stay in it.
    """
    stride = mat.shape[1]
    flat = mat.reshape(-1)
    u, s = np.divmod(keys, stride)
    deg = indptr[u + 1] - indptr[u]
    ends = np.cumsum(deg)
    # every arc of each cell's node, node by node: the k-th is arc k - (ends - deg)[i] of u[i]
    slot = np.repeat(indptr[u] + deg - ends, deg)
    slot += np.arange(slot.size)
    force = np.repeat(flat[keys], deg) + weights[slot]
    key = indices[slot] * stride + np.repeat(s, deg)
    lower = force < flat[key]
    key = key[lower]
    np.minimum.at(flat, key, force[lower])
    return sorted_distinct(key)


def _pull_round(groups, mat, a, z) -> tuple[int, np.ndarray | None]:
    """Lower each row's columns ``a:z``, in place, to its neighbours' plus the arc weight.

    Returns how many arcs leave the cells that fell, and those cells as flat
    indices of ``mat`` while their arcs number fewer than
    ``n * (z - a) / _PUSH_CELLS``, else None.
    """
    n, stride = mat.shape
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
                fell.append(rows[i] * stride + (j + a))
            else:
                fell = None
    return cost, None if fell is None else np.concatenate(fell, dtype=np.int64)


class ArgumentError(ValueError):
    """A run argument that breaks its rule; ``name`` is the parameter's."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} {rule}")
        self.name, self.rule = name, rule


def check_run(trials=1, seed=0, max_points=3, fit_range=None, workers=1, methods=()) -> None:
    """The one check of the run arguments, else ``ArgumentError``. Every
    default passes, so a stage passes only its own; a method of None is the
    input's own metric."""
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0),
                               ("max_points", max_points, 3), ("workers", workers, 1)):
        # a bool is an int to isinstance, but True is no count
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (integer and value >= least):
            raise ArgumentError(name, f"must be an integer of at least {least}, got {value!r}")
    if fit_range is not None:
        lo, hi = fit_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ArgumentError("fit_range", f"must be finite with lo <= hi, got {fit_range!r}")
    for method in methods:
        if method not in (None, HOP, REPULSION):
            raise ArgumentError("method", f"{method!r} is an unknown metric")


def _resolve(g: Graph | WeightedGraph, metric: str | None):
    """Pick (graph, arc weights, metric_kind) for either input type and a known metric.

    A ``WeightedGraph`` carries its own forces, and a ``Graph`` under
    repulsion is weighed by ``edge_repulsive_force``; hops weigh every arc 1.
    """
    if isinstance(g, Graph) and metric == REPULSION:
        g = edge_repulsive_force(g)
    if isinstance(g, WeightedGraph):
        if metric in (None, REPULSION):
            return g.graph, g.weights, REPULSION
        g = g.graph
    elif not isinstance(g, Graph):
        raise TypeError(f"expected Graph or WeightedGraph, got {type(g).__name__}")
    return g, np.ones_like(g.indices), HOP


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
    Refuses bad ``workers`` or metric by ``check_run``, matrices above
    ``MAX_CELLS`` cells (analyze a subsample of larger graphs), and a
    disconnected graph before its matrix is allocated. Logs one debug line.
    """
    check_run(workers=workers, methods=[metric])
    graph, weights, kind = _resolve(g, metric)
    n = graph.node_count
    if n == 0:
        raise ValueError("empty graph")
    if n * n > MAX_CELLS:
        raise ValueError(
            f"distance matrix would need {n * n} cells (cap {MAX_CELLS}); subsample the graph"
        )
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


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, flattened and ascending: a sort,
    then each entry unlike the one before. Not numpy's ``unique``, whose first
    call imports ``numpy.ma`` (some 5 ms) and which ran 3-7 times slower on
    int16 and int32; 1-byte types sort stably, as numpy then radix-sorts them."""
    values = np.sort(values, axis=None, kind="stable" if values.itemsize == 1 else None)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def distinct_distances(dm: DistanceMatrix) -> np.ndarray:
    """Sorted unique off-diagonal distance values.

    Each sorted row block's distinct values merge into the running ones; no copy is made.
    """
    values = np.empty(0, dtype=dm.dist.dtype)
    for a, z in row_blocks(dm.n):
        values = sorted_distinct(np.concatenate((values, sorted_distinct(dm.dist[a:z]))))
    # on a connected graph only the diagonal is zero
    return values[1:] if values.size and values[0] == 0 else values
