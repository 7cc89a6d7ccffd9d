"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import heapq
import math
import os
import signal
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import boxdim as bd

# 6-node worked example: labels 1..6, edges 1-2,1-3,2-3,3-4,4-5,5-6
WORKED_EXAMPLE_TEXT = "1 2\n1 3\n2 3\n3 4\n4 5\n5 6\n"


@pytest.fixture(scope="session")
def example6():
    return bd.load_edge_list(WORKED_EXAMPLE_TEXT)


@pytest.fixture(scope="session")
def example6_repulsion(example6):
    return bd.all_pairs(bd.edge_repulsive_force(example6), bd.REPULSION)


@pytest.fixture(scope="session")
def example6_hop(example6):
    return bd.all_pairs(example6, bd.HOP)


@pytest.fixture(scope="session")
def karate():
    return bd.karate_club()


def random_connected_graph(n: int, extra_edges: int, seed: int) -> bd.Graph:
    """Random connected graph: random recursive tree plus extra distinct edges."""
    rng = np.random.default_rng(seed)
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    want = min(len(edges) + extra_edges, n * (n - 1) // 2)
    while len(edges) < want:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return bd.Graph.from_edges(n, sorted(edges))


def csr_rows(g: bd.Graph, weights=None) -> list[list]:
    """Each node's row of the CSR arrays as a Python list: its neighbours, or
    (neighbour, weight) pairs when arc weights are given."""
    rows = []
    for a, b in zip(g.indptr[:-1].tolist(), g.indptr[1:].tolist()):
        nbrs = g.indices[a:b].tolist()
        rows.append(nbrs if weights is None else list(zip(nbrs, weights[a:b].tolist())))
    return rows


def bfs_row(neighbours, source: int, n: int) -> list[int]:
    """Hop distances from one source by breadth-first search over
    ``csr_rows(g)``; -1 marks a node it does not reach."""
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in neighbours[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def dijkstra_row(neighbours, source: int, n: int) -> list:
    """Smallest-weight distances from one source by binary-heap Dijkstra over
    ``csr_rows(g, weights)``, in Python ints; None marks a node it does not
    reach. The reference for the library's repulsion kernel."""
    dist: list = [None] * n
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, w in neighbours[u]:
            if dist[v] is None:
                heapq.heappush(heap, (d + w, v))
    return dist


def bfs_components(n: int, pairs) -> list[list[int]]:
    """Connected components by breadth-first search over Python lists built
    from the pairs, as sorted node lists ordered by smallest member.

    The reference for the library's numpy component labelling.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    assigned = [False] * n
    comps = []
    for s in range(n):
        if assigned[s]:
            continue
        assigned[s] = True
        nodes, queue = [s], deque([s])
        while queue:
            for v in nbrs[queue.popleft()]:
                if not assigned[v]:
                    assigned[v] = True
                    nodes.append(v)
                    queue.append(v)
        comps.append(sorted(nodes))
    return comps


def floyd_warshall(n: int, weighted_edges) -> list[list[float]]:
    """Cubic-time all-pairs oracle, independent of the library's traversals."""
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v, w in weighted_edges:
        if w < dist[u][v]:
            dist[u][v] = w
            dist[v][u] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def dense_greedy_colors(dp: np.ndarray, box_size) -> tuple[np.ndarray, int]:
    """Greedy coloring of row-permuted distance matrix ``dp`` in index order.

    The dense statement of the covering rule, kept as the reference for the
    library's sparse kernel: each node takes the smallest color not used by
    any earlier node at distance >= box_size. Returns (colors in permuted
    order, color count).
    """
    n = dp.shape[0]
    colors = np.zeros(n, dtype=np.int64)
    if n == 0:
        return colors, 0
    ncolors = 1
    used = np.zeros(n + 1, dtype=bool)
    for i in range(1, n):
        far = colors[:i][dp[i, :i] >= box_size]
        if far.size:
            used[far] = True
            c = int(np.argmin(used[: ncolors + 1]))
            used[far] = False
        else:
            c = 0
        colors[i] = c
        if c == ncolors:
            ncolors += 1
    return colors, ncolors


def is_valid_covering(dm: bd.DistanceMatrix, covering: bd.BoxCovering) -> bool:
    """Check that every same-colored pair lies at distance < box_size."""
    colors = covering.colors
    same = colors[:, None] == colors[None, :]
    np.fill_diagonal(same, False)
    return not bool((dm.dist[same] >= covering.box_size).any())


def trial_stats(dm: bd.DistanceMatrix, box_size: int, trials: int, master_seed: int):
    """Box-count statistics of the greedy trials at one box size."""
    counts = bd.covering_counts(dm, [box_size], trials, master_seed)
    return bd.TrialStatistics.from_counts(box_size, counts[0])


def graph_weighted_edges(g: bd.Graph, metric: str):
    """Edge list with weights matching the requested metric."""
    if metric == bd.HOP:
        return [(u, v, 1) for u, v in g.edges]
    deg = bd.degrees(g)
    return [(u, v, int(deg[u]) * int(deg[v])) for u, v in g.edges]


def read_series_csv(path) -> tuple[list[int], list[float]]:
    """Back-parse (box sizes, mean counts) from a scaling series CSV."""
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    sizes, means = [], []
    for row in rows[1:]:
        cells = row.split(",")
        sizes.append(int(cells[0]))
        means.append(float(cells[1]))
    return sizes, means


def set_usable_cpus(monkeypatch, count: int) -> None:
    """Make ``count`` CPUs usable by this process, as covering's trial pool
    and the CLI's thread count see them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the body if it runs longer than ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def die_on_trial(monkeypatch, trial: int) -> None:
    """Make the covering trial ``trial`` kill the worker process that runs it."""
    from boxdim import covering

    trial_counts = covering._trial_counts

    def dying(plan, n, master_seed, t):
        if t == trial:
            os._exit(1)
        return trial_counts(plan, n, master_seed, t)

    monkeypatch.setattr(covering, "_trial_counts", dying)


def die_on_slice(monkeypatch, first: int) -> None:
    """Make the all-pairs column slice that starts at ``first`` kill the
    worker process that relaxes it; in the calling process it fails instead."""
    from boxdim import metrics

    relax = metrics._relax
    parent = os.getpid()

    def dying(*args):
        if args[-1][0] == first:
            assert os.getpid() != parent, "the slice ran in the calling process"
            os._exit(1)
        return relax(*args)

    monkeypatch.setattr(metrics, "_relax", dying)
