"""Greedy box covering of a network under a distance threshold.

A box of size ``box_size`` may hold two nodes only when their distance is
strictly below ``box_size``. Equivalently, nodes at distance >= box_size are
adjacent in a dual graph, and a valid covering is a proper coloring of that
dual (Song et al., J. Stat. Mech. 2007, P03006). The greedy pass colors the
nodes in a given order, each taking the smallest color not used by an earlier
node at distance >= box_size.

Each covering call plans every box size once, for every trial and worker.
An isolated node (no other node closer than box_size) is a box of its own;
a universal node (every node closer) joins the first box. Neither is walked:
the count is the walk's boxes plus the isolated nodes, and at least 1. The
walk takes one of three steps:

* Graphs of at most 64 nodes (``_WORD_NODES``) hold each node's far set
  (distance >= box_size) as one 64-bit word and color every trial at once,
  each box one word of members per trial, in the calling process.
* On larger graphs each trial walks each node's near list, the nodes closer
  than box_size. A node not yet colored holds color 0, so the colored
  entries are its earlier near neighbours, and a color is open only when
  every member is one.
* Where those lists would be long, reach rows replace them: row c holds,
  for every node v, the largest distance from v to a member of color c, so
  c is open to u exactly when its row holds less than box_size at u.

Greedy coloring is order-dependent, so trials reshuffle the node order with
independently seeded generators. Every step gives the same colors, so the
results are identical for a fixed master seed whatever the step or workers.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import DistanceMatrix, row_blocks
from .pool import fork_map

logger = logging.getLogger(__name__)

BRUTE_FORCE_MAX_NODES = 12

# a size whose near lists hold more entries than this per walked node
# colors by reach rows, else it scans them in Python (24 / 48 / 96 took
# 65 / 60 / 73 ms per Sierpinski 5 hop trial, 37 / 37 / 38 on the 2859-node
# graph under hop and 33 / 32 / 39 under repulsion, 2-core x86-64)
_SHORT_LIST = 48
# reach rows a pass starts with, and adds each time they fill: a fixed step,
# so the old and the new rows held at once do not double with the colors
_REACH_ROWS = 64
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
    """Each node's near list at one box size, in node order: u's list
    ``cols[start[u]:start[u + 1]]`` holds the v != u with d(u, v) < box_size."""

    cols: np.ndarray
    start: list[int]

    def colors(self, order: list[int]) -> tuple[list[int], int]:
        """Colors plus one of a greedy pass over the nodes in ``order``, and how many were used.

        Color c is open to u when its tally over u's list equals its member
        count (``members[0] = -1`` keeps the uncolored out).
        """
        start = self.start
        scan = memoryview(self.cols)
        n = len(start) - 1
        colors = [0] * n
        members = [-1] + [0] * n
        tally = [0] * (n + 1)
        ncolors = 0
        for u in order:
            near = scan[start[u] : start[u + 1]]
            c = ncolors + 1  # a new color
            for v in near:
                k = colors[v]
                t = tally[k] + 1
                tally[k] = t
                if t == members[k] and k < c:
                    c = k
            for v in near:
                tally[colors[v]] = 0
            members[c] += 1
            colors[u] = c
            if c > ncolors:
                ncolors = c
        return colors, ncolors


@dataclass(frozen=True, eq=False)
class _Reach:
    """A long-list size's pass, over reach rows: ``reach[c, v]`` is the largest
    d(w, v) over the members w of color c + 1, so that color is open to u
    exactly when ``reach[c, u] < box_size``. The row past the last color is
    all zeros, so some color is always open; ``_REACH_ROWS`` more rows are
    added each time they fill."""

    dist: np.ndarray
    box_size: int

    def colors(self, order: list[int]) -> tuple[list[int], int]:
        """As ``_SideLists.colors``."""
        dist, b = self.dist, self.box_size
        n = dist.shape[0]
        reach = np.zeros((_REACH_ROWS, n), dtype=dist.dtype)
        colors = [0] * n
        ncolors = 0
        for u in order:
            c = int((reach[: ncolors + 1, u] < b).argmax())
            row = reach[c]
            np.maximum(row, dist[u], out=row)
            colors[u] = c + 1
            if c == ncolors:
                ncolors += 1
                if ncolors == len(reach):
                    grown = np.zeros((ncolors + _REACH_ROWS, n), dtype=reach.dtype)
                    grown[:ncolors] = reach
                    reach = grown
        return colors, ncolors


@dataclass(frozen=True, eq=False)
class _SizePlan:
    """One box size's pass: ``walk`` masks the nodes a trial colors, ``alone``
    counts the isolated nodes, and ``step`` is the far-set words (see
    ``_far_words``) in lockstep, else the reach step or the near lists."""

    walk: np.ndarray
    alone: int
    step: np.ndarray | _Reach | _SideLists


def _plan(dm: DistanceMatrix, sizes: Sequence[int], trials: int = 0) -> list[_SizePlan]:
    """For each box size, the nodes its pass walks and what the pass reads:
    far-set words for the lockstep ``trials`` of a graph of at most
    ``_WORD_NODES`` nodes, else reach rows where the near lists hold more
    than ``_SHORT_LIST`` entries per walked node, else the near lists."""
    dist, n = dm.dist, dm.n
    blocks = row_blocks(n)
    lockstep = trials > 0 and n <= _WORD_NODES
    # cuts[i, u] counts the nodes v with d(u, v) < sizes[i], u itself included
    cuts = np.empty((len(sizes), n), dtype=np.int64)
    zeros = 0
    for a, z in blocks:
        block = dist[a:z]
        zeros += np.count_nonzero(block == 0)
        for cut, b in zip(cuts, sizes):
            # the narrowest sum that holds n: 3 times faster than count_nonzero's int64
            cut[a:z] = (block < b).sum(axis=1, dtype=np.min_scalar_type(n))
    if zeros > n:
        raise ValueError("an off-diagonal distance is 0; covering needs positive ones")
    walks = (cuts > 1) & (cuts < n)
    walked = np.count_nonzero(walks, axis=1)
    entries = cuts.sum(axis=1) - n  # near pairs, ordered, u != v
    listed = [] if lockstep else np.nonzero(entries <= _SHORT_LIST * walked)[0].tolist()
    near = dict(zip(listed, _near_lists(dist, blocks, [sizes[i] for i in listed], cuts[listed])))
    plan: list[_SizePlan] = []
    for i, (b, cut, walk, pairs) in enumerate(zip(sizes, cuts, walks, entries)):
        alone = int(np.count_nonzero(cut == 1))
        if lockstep:
            step, what = _far_words(dist, b), f"bitset, {trials} trials in lockstep"
        elif i in near:
            step, what = near[i], f"near side, {pairs} list entries"
        else:
            step, what = _Reach(dist, b), f"reach, {pairs} list entries"
        logger.debug("box size %d: %s, %d nodes walked, %d isolated", b, what, walked[i], alone)
        plan.append(_SizePlan(walk, alone, step))
    return plan


def _near_lists(dist: np.ndarray, blocks, sizes: list[int], cuts: np.ndarray) -> list[_SideLists]:
    """The near lists of each of ``sizes``, whose rows of ``cuts`` count each
    node's near set plus itself, from one read of each row block."""
    n = dist.shape[0]
    starts = [np.concatenate(([0], np.cumsum(cut - 1))) for cut in cuts]
    cols = [np.empty(start[-1], dtype=np.min_scalar_type(n - 1)) for start in starts]
    if any(col.size for col in cols):
        top = max(sizes)
        for a, z in blocks:
            block = dist[a:z].reshape(-1)
            # a flat nonzero is 9 times faster than a 2-d one; the widest
            # size's entries hold every other size's, in the same order
            near = np.flatnonzero((block > 0) & (block < top))
            d = block[near]
            near %= n
            for b, start, col in zip(sizes, starts, cols):
                col[start[a] : start[z]] = near if b == top else near[d < b]
    return [_SideLists(col, start.tolist()) for col, start in zip(cols, starts)]


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
    colors, ncolors = entry.step.colors(order.tolist())
    colors = np.asarray(colors, dtype=np.int64) - 1
    colors.setflags(write=False)
    return BoxCovering(box_size=box_size, colors=colors, box_count=ncolors)


def _order(n: int, master_seed: int, trial: int) -> np.ndarray:
    """Trial ``trial``'s node order, seeded by (master_seed, trial) alone."""
    return np.random.default_rng((master_seed, trial)).permutation(n)


# compare colors the same trials of one graph under both metrics, so the
# last block of orders drawn is kept
@functools.lru_cache(maxsize=1)
def _order_block(n: int, master_seed: int, first: int, stop: int) -> np.ndarray:
    """The node orders of trials ``first`` to ``stop - 1``, one row each (n <= 64)."""
    orders = np.empty((stop - first, n), dtype=np.uint8)
    for t in range(first, stop):
        orders[t - first] = _order(n, master_seed, t)
    orders.setflags(write=False)
    return orders


def _trial_counts(plan: list[_SizePlan], n: int, master_seed: int, trial: int) -> list[int]:
    """Each size's count of boxes that its walked nodes take in trial ``trial``."""
    order = _order(n, master_seed, trial)
    counts = []
    for entry in plan:
        # one walk alive at a time; a size that walks no node colors nothing
        walk = order[entry.walk[order]].tolist()
        counts.append(entry.step.colors(walk)[1] if walk else 0)
    return counts


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
    walks a node. Otherwise each trial walks the plan, on ``workers``
    forked processes, at most one per trial and per usable CPU, that share
    the plan built here; a worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool``.
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
        state = (plan, n, master_seed)
        for t, col in enumerate(fork_map(_trial_counts, range(trials), workers, state)):
            counts[:, t] = col
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
