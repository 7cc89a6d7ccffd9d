"""Greedy box covering of a network under a distance threshold.

A box of size ``box_size`` may hold two nodes only when their distance is
strictly below ``box_size``. Equivalently, nodes at distance >= box_size are
adjacent in a dual graph, and a valid covering is a proper coloring of that
dual (Song et al., J. Stat. Mech. 2007, P03006). The greedy pass colors the
nodes in a given order, each taking the smallest color not used by an earlier
node at distance >= box_size.

The dual does not depend on the order, so each covering call materialises it
once, shared by every trial and worker. An isolated node (no other node
closer than box_size) clashes with every node, so it is a box of its own; a
universal node (every node closer) clashes with none, so it joins the first
box. Neither is walked: the count is the walk's boxes plus the isolated
nodes, and at least 1. Sizes at or below the smallest distance, or above the
diameter, walk no node. The walk takes one of two steps, chosen by node count:

* Graphs of at most 64 nodes (``_WORD_NODES``) hold each node's far set
  (distance >= box_size) as one 64-bit word, and each trial's boxes as one
  word of members each. All trials are colored at once, one node position at
  a time: a node takes, in every trial, the first box whose members miss its
  far set. These sizes run in the calling process and never fork workers.
* Larger graphs walk each trial on its own, over each node's list of
  whichever side of the threshold holds fewer pairs: a slice of its distance
  row sorted once per call. A node not yet colored holds color 0, so the
  colored entries of a list are its earlier neighbours. On the far side a
  node rules out their colors; on the near side (distance < box_size) a color
  is open to it only when every member is one of them. Both give the same colors.

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

# distance cells compared or sorted at once (the sort's int64 indices take 2 MB,
# beside the distances and the sorted node matrix)
_CHUNK_CELLS = 1 << 18
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

    Row u of ``nearest``, shared by every size, lists all nodes by ascending
    distance from u, u first (when no size walks a node, every list is empty
    and ``nearest`` has no columns); u's list ``nearest.reshape(-1)[lo[u]:hi[u]]``
    holds the v != u with d(u, v) < box_size when ``near``, else the rest of
    the row. Which entries come before u depends on the trial's order, and
    the pass tells them apart by their colors.
    """

    near: bool
    nearest: np.ndarray
    lo: list[int]
    hi: list[int]


@dataclass(frozen=True, eq=False)
class _SizePlan:
    """One box size's pass: ``walk`` masks the nodes a trial colors, ``alone``
    counts the isolated nodes, and ``step`` is the far-set words (see
    ``_far_words``) in lockstep, else the side lists."""

    walk: np.ndarray
    alone: int
    step: np.ndarray | _SideLists


def _plan(dm: DistanceMatrix, sizes: Sequence[int], trials: int = 0) -> list[_SizePlan]:
    """For each box size, the nodes its pass walks and what the pass reads.

    The far-set words serve when the ``trials`` of a covering call run in
    lockstep, on graphs of at most ``_WORD_NODES`` nodes; the side lists
    otherwise. ``dm.dist`` is read a block of rows at a time, so the only
    n x n array allocated is the sorted rows, and only when some size walks
    a node: otherwise every list is empty.
    """
    dist = dm.dist
    n = dm.n
    block_rows = max(1, _CHUNK_CELLS // max(n, 1))
    blocks = [(a, min(a + block_rows, n)) for a in range(0, n, block_rows)]
    lockstep = trials > 0 and n <= _WORD_NODES
    # cut[u] counts the nodes v with d(u, v) < b, u itself included
    cuts = [
        np.concatenate([np.count_nonzero(dist[a:z] < b, axis=1) for a, z in blocks])
        for b in sizes
    ]
    walks = [(cut > 1) & (cut < n) for cut in cuts]
    if not lockstep:
        sort = any(walk.any() for walk in walks)
        nearest = np.empty((n, n if sort else 0), dtype=np.min_scalar_type(n - 1))
        if sort:
            # a radix sort for 8- and 16-bit distances; timsort was 4 times slower on int32
            kind = "stable" if dist.itemsize <= 2 else "quicksort"
            for a, z in blocks:
                nearest[a:z] = np.argsort(dist[a:z], axis=1, kind=kind)
            # a row's own node leads it, alone at distance 0, unless another is at 0
            # too; then the row's second node is at 0 whatever the sort's tie order
            if n > 1 and not (dist[np.arange(n), nearest[:, 1]] > 0).all():
                raise ValueError("an off-diagonal distance is 0; covering needs positive ones")
        row = np.arange(0, n * n, n)
        after_self, row_end = (row + 1).tolist(), (row + n).tolist()
    plan: list[_SizePlan] = []
    for b, cut, walk in zip(sizes, cuts, walks):
        alone = int(np.count_nonzero(cut == 1))
        if lockstep:
            step = _far_words(dist, b)
            what = f"bitset, {trials} trials in lockstep"
        else:
            near_pairs = int(cut.sum()) - n  # ordered pairs u != v
            near = 2 * near_pairs <= n * (n - 1)
            split = (row + cut).tolist()
            lo, hi = (after_self, split) if near else (split, row_end)
            step = _SideLists(near, nearest, lo, hi)
            entries = near_pairs if near else n * (n - 1) - near_pairs
            what = f"{'near' if near else 'far'} side, {entries} list entries"
        logger.debug(
            "box size %d: %s, %d nodes walked, %d isolated", b, what, np.count_nonzero(walk), alone
        )
        plan.append(_SizePlan(walk, alone, step))
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
    near, lo, hi = lists.near, lists.lo, lists.hi
    cols = lists.nearest.reshape(-1)
    scan = memoryview(cols)
    n = lists.nearest.shape[0]
    colors = [0] * n
    # numpy copies of the state, for the lists long enough for the numpy tally
    colors_np = np.zeros(n, dtype=np.int64)
    target = np.zeros(n + 1, dtype=np.int64)
    members = [0] * (n + 1)
    members[0] = -1
    tally = [0] * (n + 1)
    ncolors = 0
    for u in order:
        s, e = lo[u], hi[u]
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
        colors_np[u] = c
        if near:
            members[c] += 1
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
    # every node walks, so that each gets its color
    [entry] = _plan(dm, [box_size])
    colors, ncolors = _greedy_colors(entry.step, order.tolist())
    colors = np.asarray(colors, dtype=np.int64) - 1
    colors.setflags(write=False)
    return BoxCovering(box_size=box_size, colors=colors, box_count=ncolors)


def _order(n: int, master_seed: int, trial: int) -> np.ndarray:
    """Trial ``trial``'s node order, seeded by (master_seed, trial) alone."""
    return np.random.default_rng((master_seed, trial)).permutation(n)


# the last lockstep block of orders drawn, keyed by (n, master_seed, first,
# stop): compare colors the same trials of one graph under both metrics
_last_orders: tuple[tuple[int, int, int, int], np.ndarray] | None = None


def _order_block(n: int, master_seed: int, first: int, stop: int) -> np.ndarray:
    """The node orders of trials ``first`` to ``stop - 1``, one row each (n <= 64)."""
    global _last_orders
    key = (n, master_seed, first, stop)
    if _last_orders is None or _last_orders[0] != key:
        orders = np.empty((stop - first, n), dtype=np.uint8)
        for t in range(first, stop):
            orders[t - first] = _order(n, master_seed, t)
        orders.setflags(write=False)
        _last_orders = key, orders
    return _last_orders[1]


def _trial_counts(plan: list[_SizePlan], n: int, master_seed: int, trial: int) -> list[int]:
    """Each size's count of boxes that its walked nodes take in trial ``trial``."""
    order = _order(n, master_seed, trial)
    return [_greedy_colors(entry.step, order[entry.walk[order]].tolist())[1] for entry in plan]


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
    in this process: ``workers`` starts no process there, nor when no size
    walks a node. Otherwise each trial walks the side lists, on ``workers``
    forked processes that share the lists built here; a worker that dies
    raises ``concurrent.futures.process.BrokenProcessPool``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sizes = [int(b) for b in box_sizes]
    if any(b <= 0 for b in sizes):
        raise ValueError("box sizes must be positive")
    plan = _plan(dm, sizes, trials)
    n = dm.n
    # the boxes of the walked nodes; the isolated nodes' boxes are added last
    counts = np.zeros((len(sizes), trials), dtype=np.int64)
    if n <= _WORD_NODES:
        for first in range(0, trials, _TRIAL_BLOCK):
            stop = min(first + _TRIAL_BLOCK, trials)
            orders = _order_block(n, master_seed, first, stop)
            for row, entry in zip(counts, plan):
                # every trial walks the same number of nodes, each in its own order
                walked = orders[entry.walk[orders]].reshape(stop - first, -1)
                row[first:stop] = _lockstep_counts(entry.step, walked)
    elif any(entry.walk.any() for entry in plan):
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
                initargs=(plan, n, master_seed),
            ) as pool:
                for t, col in enumerate(pool.map(_worker_trial, range(trials), chunksize=chunk)):
                    counts[:, t] = col
        else:
            for t in range(trials):
                counts[:, t] = _trial_counts(plan, n, master_seed, t)
    alone = np.array([entry.alone for entry in plan], dtype=np.int64)
    return np.maximum(counts + alone[:, None], 1)


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
