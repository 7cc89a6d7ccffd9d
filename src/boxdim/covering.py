"""Greedy box covering of a network under a distance threshold.

A box of size ``box_size`` may hold two nodes only when their distance is
strictly below ``box_size``. Equivalently, nodes at distance >= box_size are
adjacent in a dual graph, and a valid covering is a proper coloring of that
dual (Song et al., J. Stat. Mech. 2007, P03006). The greedy pass colors the
nodes in a given order, each taking the smallest color not used by an earlier
node at distance >= box_size.

The dual does not depend on the order, so each covering call materialises it
once, shared by every trial and worker. Box sizes at or below the smallest
distance give one box per node, and sizes above the diameter a single box,
without a pass. Every other size takes one of two steps, chosen by the node
count:

* Graphs of at most 64 nodes (``_WORD_NODES``) hold each node's far set
  (distance >= box_size) as one 64-bit word, and each trial's boxes as one
  word of members each. All trials are colored at once, one node position at
  a time: a node takes, in every trial, the first box whose members miss its
  far set. These sizes run in the calling process and never fork workers.
* Larger graphs walk each trial on its own, over a CSR list for each node of
  whichever side of the threshold holds fewer pairs, read as built: a node
  not yet colored holds color 0, so the colored entries of a list are the
  node's earlier neighbours. On the far side a node rules out the colors of
  its earlier far neighbours. On the near side (distance < box_size) a color
  is open to a node only when every member is one of its earlier near
  neighbours. Both sides give the same colors.

Greedy coloring is order-dependent, so trials reshuffle the node order with
independently seeded generators; results are identical for a fixed master
seed no matter which step or how many workers run the trials.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import DistanceMatrix

logger = logging.getLogger(__name__)

BRUTE_FORCE_MAX_NODES = 12

# distance cells compared at once while the lists are built (a 4 MB mask)
_CHUNK_CELLS = 1 << 22
# side lists longer than this are tallied with numpy; shorter ones are
# scanned in Python, where a numpy call costs more than the scan (a sweep
# of 32 to 160 on both benchmark graphs showed no clearly faster limit)
_SHORT_LIST = 48
# graphs of at most this many nodes color their trials in lockstep, each box
# one machine word; boxes of several words lost to the list walk from about
# 128 nodes, and were 2-6 times slower at 256-512
_WORD_NODES = 64
# trials colored in lockstep at once, so memory does not grow with the count
_TRIAL_BLOCK = 1 << 10
# _BITS[v] is node v's bit in a one-word node set
_BITS = np.left_shift(np.uint64(1), np.arange(_WORD_NODES, dtype=np.uint64))


@dataclass(frozen=True, eq=False)
class BoxCovering:
    """A valid covering: same-colored nodes lie pairwise closer than box_size."""

    box_size: int
    colors: np.ndarray
    box_count: int


@dataclass(frozen=True, eq=False)
class TrialStatistics:
    """Box counts over randomized greedy trials at one box size.

    ``counts[t]`` is the box count of trial ``t``; the summary fields use the
    population standard deviation.
    """

    box_size: int
    trials: int
    mean: float
    std: float
    min: int
    max: int
    counts: np.ndarray

    @classmethod
    def from_counts(cls, box_size: int, counts: np.ndarray) -> "TrialStatistics":
        counts = np.asarray(counts, dtype=np.int64)
        counts.setflags(write=False)
        return cls(
            box_size=int(box_size),
            trials=int(counts.size),
            mean=float(counts.mean()),
            std=float(counts.std()),
            min=int(counts.min()),
            max=int(counts.max()),
            counts=counts,
        )


@dataclass(frozen=True, eq=False)
class _SideLists:
    """Each node's neighbours on the smaller side of one box size's threshold.

    ``cols`` concatenates, node by node, the nodes v != u with
    d(u, v) < box_size when ``near``, else those with d(u, v) >= box_size;
    node u's list is ``cols[ends[u]:ends[u + 1]]``. Every trial reads the
    lists as built: which entries come before u depends on the trial's
    order, and the pass tells them apart by their colors.
    """

    near: bool
    cols: np.ndarray
    ends: list[int]
    longest: int

    @classmethod
    def from_lists(cls, near: bool, degree: np.ndarray, cols: np.ndarray) -> "_SideLists":
        ends = np.zeros(degree.size + 1, dtype=np.int64)
        np.cumsum(degree, out=ends[1:])
        return cls(near=near, cols=cols, ends=ends.tolist(), longest=int(degree.max()))


def _plan(
    dm: DistanceMatrix, sizes: Sequence[int], trials: int = 0
) -> list[int | np.ndarray | _SideLists]:
    """For each box size, its box count when no pass is needed, else what the pass reads.

    That is each node's far set as a word (see ``_far_words``) when the
    ``trials`` of a covering call run in lockstep, on graphs of at most
    ``_WORD_NODES`` nodes; else the side lists, cut from ``dm.dist`` a block
    of rows at a time, so nothing of n x n size is allocated.
    """
    dist = dm.dist
    n = dm.n
    step = max(1, _CHUNK_CELLS // max(n, 1))
    blocks = [(a, min(a + step, n)) for a in range(0, n, step)]
    ids = np.arange(n, dtype=np.int32)
    lockstep = trials > 0 and n <= _WORD_NODES
    plan: list[int | np.ndarray | _SideLists] = []
    for b in sizes:
        if b > dm.diameter:
            logger.debug("box size %d: short-circuited, N_B = 1 (above the diameter)", b)
            plan.append(1)
            continue
        # ordered pairs u != v at distance < b (the diagonal is 0 < b)
        near_pairs = sum(int(np.count_nonzero(dist[a:z] < b)) for a, z in blocks) - n
        if near_pairs == 0:
            logger.debug(
                "box size %d: short-circuited, N_B = n = %d (at or below the smallest distance)",
                b, n,
            )
            plan.append(n)
            continue
        if lockstep:
            logger.debug("box size %d: bitset, %d trials in lockstep", b, trials)
            plan.append(_far_words(dist, b))
            continue
        near = 2 * near_pairs <= n * (n - 1)
        degree = np.empty(n, dtype=np.int64)
        parts = []
        for a, z in blocks:
            block = dist[a:z]
            side = block < b if near else block >= b
            if near:
                side[np.arange(z - a), np.arange(a, z)] = False  # a node is not its own neighbour
            degree[a:z] = np.count_nonzero(side, axis=1)
            parts.append(np.broadcast_to(ids, side.shape)[side])
        lists = _SideLists.from_lists(near, degree, np.concatenate(parts))
        logger.debug(
            "box size %d: %s side, %d list entries",
            b, "near" if near else "far", lists.cols.size,
        )
        plan.append(lists)
    return plan


def _far_words(dist: np.ndarray, box_size: int) -> np.ndarray:
    """Each node's far set as a uint64 word: bit v of word u is set when
    d(u, v) >= box_size, which excludes u itself (n <= 64)."""
    return ((dist >= box_size) * _BITS[: dist.shape[0]]).sum(axis=1, dtype=np.uint64)


def _lockstep_counts(far: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Box counts of greedy passes over every row of ``orders`` at once.

    ``far`` is a size's ``_far_words``. ``members[t, c]`` holds the nodes trial
    t has put in box c, one bit each; at each position every trial's node
    takes the first box whose members miss its far set. An empty box never
    clashes, so no box count is kept: the pass ends with one per non-empty word.
    """
    trials, n = orders.shape
    members = np.zeros((trials, n), dtype=np.uint64)
    rows = np.arange(trials)
    # boxes from width - 1 on are empty in every trial, so each trial's
    # choice lies among the first width
    width = 1
    for i in range(n):
        u = orders[:, i]
        clash = (members[:, :width] & far[u][:, None]) != 0
        c = clash.argmin(axis=1)
        members[rows, c] |= _BITS[u]
        if c.max() == width - 1:
            width += 1
    return np.count_nonzero(members, axis=1)


def _greedy_colors(lists: _SideLists, order: list[int]) -> tuple[list[int], int]:
    """Colors plus one of a greedy pass over the nodes in ``order``, and how many were used.

    A node not yet colored holds 0, so the colored entries of u's list are
    exactly its earlier neighbours. Color c is open to u when its tally over
    u's list equals ``target[c]``: the members of c on the near side (every
    member is an earlier near neighbour), and 0 on the far side (none is an
    earlier far neighbour). ``members[0] = -1`` keeps the uncolored out.
    """
    near, cols, ends = lists.near, lists.cols, lists.ends
    scan = memoryview(cols)
    n = len(order)
    colors = [0] * n
    # numpy copies of the state, kept only when some list may take the numpy tally
    mirror = lists.longest > _SHORT_LIST
    colors_np = np.zeros(n, dtype=np.int64)
    target = np.zeros(n + 1, dtype=np.int64)
    members = [0] * (n + 1)
    members[0] = -1
    tally = [0] * (n + 1)
    ncolors = 0
    for u in order:
        s, e = ends[u], ends[u + 1]
        c = ncolors + 1  # a new color
        if e - s > _SHORT_LIST:
            # the new color's bin is 0 on its target 0, so argmax always finds an open color
            open_ = np.bincount(colors_np[cols[s:e]], minlength=c + 1)[1:] == target[1 : c + 1]
            c = int(open_.argmax()) + 1
        elif near:
            for v in scan[s:e]:
                k = colors[v]
                t = tally[k] + 1
                tally[k] = t
                if t == members[k] and k < c:
                    c = k
            for v in scan[s:e]:
                tally[colors[v]] = 0
        else:
            taken = set(map(colors.__getitem__, scan[s:e]))
            c = 1
            while c in taken:
                c += 1
        colors[u] = c
        if mirror:
            colors_np[u] = c
        if near:
            members[c] += 1
            if mirror:
                target[c] += 1
        if c > ncolors:
            ncolors = c
    return colors, ncolors


def greedy_box_cover(dm: DistanceMatrix, box_size, order: Sequence[int]) -> BoxCovering:
    """Run one greedy covering pass over the nodes in the given order."""
    if box_size <= 0:
        raise ValueError("box_size must be positive")
    order = np.asarray(order, dtype=np.int64)
    n = dm.n
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    [entry] = _plan(dm, [box_size])
    if isinstance(entry, _SideLists):
        colors, ncolors = _greedy_colors(entry, order.tolist())
        colors = np.asarray(colors, dtype=np.int64) - 1
    elif entry == n:  # every pair conflicts: each node opens the next box
        colors, ncolors = np.argsort(order), n
    else:  # no pair conflicts
        colors, ncolors = np.zeros(n, dtype=np.int64), 1
    colors.setflags(write=False)
    return BoxCovering(box_size=box_size, colors=colors, box_count=ncolors)


def _order(n: int, master_seed: int, trial: int) -> np.ndarray:
    """Trial ``trial``'s node order, seeded by (master_seed, trial) alone."""
    return np.random.default_rng((master_seed, trial)).permutation(n)


def _trial_counts(plan: list, n: int, master_seed: int, trial: int) -> list[int]:
    nodes = _order(n, master_seed, trial).tolist()
    return [
        _greedy_colors(entry, nodes)[1] if isinstance(entry, _SideLists) else entry
        for entry in plan
    ]


# a fork worker's (plan, n, master_seed), inherited from the parent at fork
_worker_state: tuple | None = None


def _init_worker(*state) -> None:
    global _worker_state
    _worker_state = state


def _worker_trial(trial: int) -> list[int]:
    plan, n, master_seed = _worker_state  # type: ignore[misc]
    return _trial_counts(plan, n, master_seed, trial)


def covering_counts(
    dm: DistanceMatrix,
    box_sizes: Sequence[int],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Greedy box counts for every (box_size, trial) pair.

    Trial ``t`` draws its node order from a generator seeded purely by
    (master_seed, t), and the result matrix is assembled by trial index, so
    the output is identical for any worker count. On graphs of at most 64
    nodes every trial is colored in lockstep, a block of trials at a time,
    in this process: ``workers`` starts no process there, nor when every size
    is short-circuited. Otherwise each trial walks the side lists, on
    ``workers`` forked processes that share the lists built here; a worker
    that dies raises ``concurrent.futures.process.BrokenProcessPool``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sizes = [int(b) for b in box_sizes]
    if any(b <= 0 for b in sizes):
        raise ValueError("box sizes must be positive")
    plan = _plan(dm, sizes, trials)
    counts = np.empty((len(sizes), trials), dtype=np.int64)
    if not any(isinstance(entry, _SideLists) for entry in plan):
        # every size is short-circuited or a bitset, so no worker is needed
        bitsets = []
        for row, entry in zip(counts, plan):
            if isinstance(entry, np.ndarray):
                bitsets.append((row, entry))
            else:
                row[:] = entry
        if bitsets:
            for first in range(0, trials, _TRIAL_BLOCK):
                stop = min(first + _TRIAL_BLOCK, trials)
                orders = np.empty((stop - first, dm.n), dtype=np.uint8)
                for t in range(first, stop):
                    orders[t - first] = _order(dm.n, master_seed, t)
                for row, far in bitsets:
                    row[first:stop] = _lockstep_counts(far, orders)
        return counts

    workers = max(1, min(int(workers), trials))
    if workers > 1 and hasattr(os, "fork"):
        # imported here so that importing the package does not pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, trials // (workers * 8))
        with ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(plan, dm.n, master_seed),
        ) as pool:
            for t, col in enumerate(pool.map(_worker_trial, range(trials), chunksize=chunk)):
                counts[:, t] = col
    else:
        for t in range(trials):
            counts[:, t] = _trial_counts(plan, dm.n, master_seed, t)
    return counts


def brute_force_min_boxes(dm: DistanceMatrix, box_size) -> int:
    """Exact minimum box count, by exhaustive search (test oracle).

    Branch-and-bound over canonical colorings of the implicit dual graph;
    limited to very small instances.
    """
    n = dm.n
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_NODES} nodes, got {n}")
    if box_size <= 0:
        raise ValueError("box_size must be positive")
    if n == 0:
        raise ValueError("empty distance matrix")

    conflict = dm.dist >= box_size
    np.fill_diagonal(conflict, False)
    # order nodes by conflict degree (descending) to tighten pruning
    node_order = sorted(range(n), key=lambda u: -int(conflict[u].sum()))
    masks = []
    for u in node_order:
        m = 0
        for v_pos, v in enumerate(node_order):
            if conflict[u, v]:
                m |= 1 << v_pos
        masks.append(m)

    best = n
    members = [0] * (n + 1)

    def search(i: int, ncolors: int) -> None:
        nonlocal best
        if ncolors >= best:
            return
        if i == n:
            best = ncolors
            return
        bit = 1 << i
        for c in range(ncolors):
            if not members[c] & masks[i]:
                members[c] |= bit
                search(i + 1, ncolors)
                members[c] &= ~bit
        members[ncolors] = bit
        search(i + 1, ncolors + 1)
        members[ncolors] = 0

    search(0, 0)
    return best
