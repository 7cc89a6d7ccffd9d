"""Compiled all-pairs traversals, used when numba is installed.

Every function here mirrors a pure-Python implementation in ``metrics``,
operating on the same exact integer values, so results are identical with or
without numba (the optional ``accel`` extra). Set BOXDIM_NO_NUMBA=1 to force
the fallbacks.
"""
from __future__ import annotations

import os

import numpy as np

try:
    if os.environ.get("BOXDIM_NO_NUMBA"):
        raise ImportError("disabled via BOXDIM_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via BOXDIM_NO_NUMBA
    HAVE_NUMBA = False


def available() -> bool:
    return HAVE_NUMBA


def csr_arrays(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """Flatten an adjacency structure to (indptr, indices)."""
    n = len(adjacency)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, ns in enumerate(adjacency):
        indptr[u + 1] = indptr[u] + len(ns)
    indices = np.empty(indptr[-1], dtype=np.int64)
    pos = 0
    for ns in adjacency:
        for v in ns:
            indices[pos] = v
            pos += 1
    return indptr, indices


def weighted_csr_arrays(weighted_adjacency) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten (neighbor, weight) adjacency to (indptr, indices, weights)."""
    n = len(weighted_adjacency)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, ns in enumerate(weighted_adjacency):
        indptr[u + 1] = indptr[u] + len(ns)
    indices = np.empty(indptr[-1], dtype=np.int64)
    weights = np.empty(indptr[-1], dtype=np.int64)
    pos = 0
    for ns in weighted_adjacency:
        for v, w in ns:
            indices[pos] = v
            weights[pos] = w
            pos += 1
    return indptr, indices, weights


if HAVE_NUMBA:

    @njit(cache=True)
    def bfs_all_pairs(indptr, indices, out):
        n = indptr.size - 1
        queue = np.empty(n, np.int64)
        for s in range(n):
            dist = out[s]
            for i in range(n):
                dist[i] = -1
            dist[s] = 0
            head = 0
            tail = 1
            queue[0] = s
            while head < tail:
                u = queue[head]
                head += 1
                du = dist[u] + 1
                for k in range(indptr[u], indptr[u + 1]):
                    v = indices[k]
                    if dist[v] < 0:
                        dist[v] = du
                        queue[tail] = v
                        tail += 1

    @njit(cache=True)
    def dijkstra_all_pairs(indptr, indices, weights, out):
        # binary heap with lazy deletion; int64 path sums throughout
        n = indptr.size - 1
        inf = np.int64(1) << 62
        cap = indices.size + 2
        heap_d = np.empty(cap, np.int64)
        heap_v = np.empty(cap, np.int64)
        for s in range(n):
            dist = out[s]
            for i in range(n):
                dist[i] = inf
            dist[s] = 0
            heap_d[0] = 0
            heap_v[0] = s
            size = 1
            while size > 0:
                d = heap_d[0]
                u = heap_v[0]
                size -= 1
                heap_d[0] = heap_d[size]
                heap_v[0] = heap_v[size]
                i = 0
                while True:
                    left = 2 * i + 1
                    if left >= size:
                        break
                    small = left
                    right = left + 1
                    if right < size and heap_d[right] < heap_d[left]:
                        small = right
                    if heap_d[small] < heap_d[i]:
                        heap_d[i], heap_d[small] = heap_d[small], heap_d[i]
                        heap_v[i], heap_v[small] = heap_v[small], heap_v[i]
                        i = small
                    else:
                        break
                if d > dist[u]:
                    continue
                for k in range(indptr[u], indptr[u + 1]):
                    v = indices[k]
                    nd = d + weights[k]
                    if nd < dist[v]:
                        dist[v] = nd
                        j = size
                        heap_d[j] = nd
                        heap_v[j] = v
                        size += 1
                        while j > 0:
                            parent = (j - 1) // 2
                            if heap_d[j] < heap_d[parent]:
                                heap_d[j], heap_d[parent] = heap_d[parent], heap_d[j]
                                heap_v[j], heap_v[parent] = heap_v[parent], heap_v[j]
                                j = parent
                            else:
                                break
