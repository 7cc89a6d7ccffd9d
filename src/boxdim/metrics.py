"""Edge repulsion weights and exact integer shortest-path metrics.

Two node-to-node metrics are supported:

* ``hop``: classic shortest-path length, counting edges.
* ``repulsion``: each edge carries a repulsive force equal to the product of
  its endpoint degrees; the distance between two nodes is the minimum total
  force over all connecting paths. High-degree hubs are thus pushed far apart
  even when directly linked.

All distances are computed and stored as exact integers, so downstream
threshold tests never hit floating-point ties. ``all_pairs`` has one
implementation per metric, in pure Python: a breadth-first search per source
for hops and a binary-heap Dijkstra per source for repulsion.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, is_connected

HOP = "hop"
REPULSION = "repulsion"

DEFAULT_CELL_CAP = 10**9


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """A graph whose edges carry positive integer repulsion forces.

    ``forces[k]`` is the weight of ``graph.edges[k]``; ``weighted_adjacency``
    mirrors ``graph.adjacency`` with (neighbor, force) pairs.
    """

    graph: Graph
    forces: tuple[int, ...]
    weighted_adjacency: tuple[tuple[tuple[int, int], ...], ...]

    def force(self, u: int, v: int) -> int:
        for nbr, w in self.weighted_adjacency[u]:
            if nbr == v:
                return w
        raise KeyError(f"no edge ({u},{v})")


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
    deg = [len(ns) for ns in g.adjacency]
    forces = tuple(deg[u] * deg[v] for u, v in g.edges)
    wadj: list[list[tuple[int, int]]] = [[] for _ in range(g.node_count)]
    for (u, v), f in zip(g.edges, forces):
        wadj[u].append((v, f))
        wadj[v].append((u, f))
    return WeightedGraph(
        graph=g,
        forces=forces,
        weighted_adjacency=tuple(tuple(sorted(ns)) for ns in wadj),
    )


def _bfs_row(adjacency, source: int, n: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def _dijkstra_row(weighted_adjacency, source: int, n: int) -> list[int]:
    # Plain binary-heap Dijkstra over Python ints: exact for any 64-bit sums.
    dist: list[int | None] = [None] * n
    heap = [(0, source)]
    remaining = n
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        remaining -= 1
        if remaining == 0:
            break
        for v, w in weighted_adjacency[u]:
            if dist[v] is None:
                heapq.heappush(heap, (d + w, v))
    return dist  # type: ignore[return-value]


def _resolve(g: Graph | WeightedGraph, metric: str | None):
    """Pick (graph, adjacency-for-metric, metric_kind) for either input type."""
    if isinstance(g, WeightedGraph):
        metric = metric or REPULSION
        if metric == REPULSION:
            return g.graph, g.weighted_adjacency, REPULSION
        if metric == HOP:
            return g.graph, g.graph.adjacency, HOP
    elif isinstance(g, Graph):
        metric = metric or HOP
        if metric == HOP:
            return g, g.adjacency, HOP
        if metric == REPULSION:
            raise TypeError("repulsion metric needs a WeightedGraph; call edge_repulsive_force first")
    else:
        raise TypeError(f"expected Graph or WeightedGraph, got {type(g).__name__}")
    raise ValueError(f"unknown metric {metric!r}")


def shortest_paths_from(
    g: Graph | WeightedGraph, source: int, metric: str | None = None
) -> np.ndarray:
    """Single-source distances as an int64 row.

    Hop mode runs breadth-first search; repulsion mode runs Dijkstra over the
    integer force weights. The graph must be connected.
    """
    graph, adjacency, kind = _resolve(g, metric)
    n = graph.node_count
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range")
    row = _bfs_row(adjacency, source, n) if kind == HOP else _dijkstra_row(adjacency, source, n)
    if any(d is None or d < 0 for d in row):
        raise ValueError("graph is not connected")
    out = np.asarray(row, dtype=np.int64)
    out.setflags(write=False)
    return out


def all_pairs(
    g: Graph | WeightedGraph,
    metric: str | None = None,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> DistanceMatrix:
    """All-pairs distance matrix under the chosen metric.

    Runs one single-source pass per node and stores the full symmetric matrix
    densely. Refuses matrices above ``cell_cap`` cells; analyze a subsample or
    raise the cap explicitly for larger graphs.
    """
    graph, adjacency, kind = _resolve(g, metric)
    n = graph.node_count
    if n == 0:
        raise ValueError("empty graph")
    if n * n > cell_cap:
        raise ValueError(
            f"distance matrix would need {n * n} cells (cap {cell_cap}); "
            "subsample the graph or raise cell_cap"
        )
    if not is_connected(graph):
        raise ValueError("graph must be connected; extract the largest component first")
    mat = np.empty((n, n), dtype=np.int64)
    row_fn = _bfs_row if kind == HOP else _dijkstra_row
    for s in range(n):
        mat[s, :] = row_fn(adjacency, s, n)
    mat.setflags(write=False)
    return DistanceMatrix(metric_kind=kind, dist=mat, diameter=int(mat.max()))


def distinct_distances(dm: DistanceMatrix) -> np.ndarray:
    """Sorted unique off-diagonal distance values."""
    values = np.unique(dm.dist)
    # on a connected graph only the diagonal is zero
    return values[1:] if values.size and values[0] == 0 else values
