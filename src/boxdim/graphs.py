"""Simple undirected graphs as numpy CSR arrays: edge-list ingestion, components, degrees."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class EdgeListError(ValueError):
    """Malformed or empty edge-list input."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph over dense node ids 0..node_count-1, as CSR arrays.

    Node u's neighbours are ``indices[indptr[u]:indptr[u + 1]]``, ascending;
    every edge is stored as two arcs, one per endpoint. Both arrays are
    read-only int64; no self-loops, no duplicates. Instances are immutable and
    safe to share across threads and fork workers.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    node_labels: tuple[str, ...] | None = None

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def arc_rows(self) -> np.ndarray:
        """The node each stored arc leaves, aligned with ``indices``."""
        return np.repeat(np.arange(self.node_count), np.diff(self.indptr))

    @property
    def edges(self) -> np.ndarray:
        """The (edge_count, 2) pairs (u, v) with u < v, in ascending order."""
        rows = self.arc_rows
        upper = rows < self.indices
        return np.column_stack((rows[upper], self.indices[upper]))

    def label(self, node: int) -> str:
        if self.node_labels is not None:
            return self.node_labels[node]
        return str(node)

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        node_labels: Sequence[str] | None = None,
    ) -> "Graph":
        """Build a validated graph from node-id pairs; the first bad pair is reported."""
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        outside = (lo < 0) | (hi >= node_count)
        key = np.where(outside, -1, lo * node_count + hi)
        repeat = np.ones(key.size, dtype=bool)
        repeat[np.unique(key, return_index=True)[1]] = False
        bad = np.flatnonzero(outside | (lo == hi) | repeat)
        if bad.size:
            i = bad[0]
            if outside[i]:
                raise ValueError(f"edge ({u[i]},{v[i]}) out of range for {node_count} nodes")
            if lo[i] == hi[i]:
                raise ValueError(f"self-loop at node {u[i]}")
            raise ValueError(f"duplicate edge {(int(lo[i]), int(hi[i]))}")
        if node_labels is not None:
            node_labels = tuple(str(s) for s in node_labels)
            if len(node_labels) != node_count:
                raise ValueError("node_labels length must equal node_count")
        rows, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
        order = np.lexsort((cols, rows))
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
        indices = cols[order]
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return cls(node_count, indptr, indices, node_labels)


def load_edge_list(
    source: str | IO[str] | Iterable[str],
    comment_prefix: str = "#",
    delimiter: str | None = None,
) -> Graph:
    """Parse a two-column edge list into a Graph.

    Each non-blank, non-comment line must hold exactly two node labels,
    separated by whitespace (or ``delimiter`` when given). Labels are mapped
    to dense ids in order of first appearance. Duplicate edges and self-loops
    are dropped; the drop counts are logged. Dropped lines never introduce
    nodes.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source

    ids: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    self_loops = 0

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment_prefix):
            continue
        tokens = [t for t in (s.strip() for s in line.split(delimiter)) if t]
        if len(tokens) != 2:
            raise EdgeListError(f"expected 2 node labels, got {len(tokens)}", lineno)
        a, b = tokens
        if a == b:
            self_loops += 1
            continue
        for tok in (a, b):
            if tok not in ids:
                ids[tok] = len(labels)
                labels.append(tok)
        pair = (ids[a], ids[b])
        if pair[0] > pair[1]:
            pair = (pair[1], pair[0])
        if pair in seen:
            duplicates += 1
            continue
        seen.add(pair)
        edges.append(pair)

    if not edges:
        raise EdgeListError("no edges")
    if duplicates or self_loops:
        logger.warning(
            "dropped %d duplicate edge(s) and %d self-loop(s) while loading",
            duplicates,
            self_loops,
        )
    return Graph.from_edges(len(labels), edges, labels)


def read_edge_list(path, **kwargs) -> Graph:
    """Load an edge list from a file path (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh, **kwargs)


def save_edge_list(g: Graph, target: str | IO[str]) -> None:
    """Write one "label label" pair per line, sorted by id pair, UTF-8."""
    if hasattr(target, "write"):
        for u, v in g.edges.tolist():
            target.write(f"{g.label(u)} {g.label(v)}\n")
        return
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        save_edge_list(g, fh)


def degrees(g: Graph) -> np.ndarray:
    """Degree of every node, as an int64 vector."""
    out = np.diff(g.indptr)
    out.setflags(write=False)
    return out


def _component_roots(g: Graph) -> np.ndarray:
    """The smallest node id of each node's component.

    Each round hooks the labels of every arc's ends to the smaller one, then
    jumps label pointers until each label is its own. A label is always a node
    of the component no larger than its holder, so once no arc joins two
    labels, each component holds one: its smallest id.
    """
    label = np.arange(g.node_count)
    rows = g.arc_rows
    while True:
        before = label.copy()
        np.minimum.at(label, label[rows], label[g.indices])
        while not np.array_equal(label[label], label):
            label = label[label]
        if np.array_equal(label, before):
            return label


def is_connected(g: Graph) -> bool:
    return not _component_roots(g).any()


def largest_component(g: Graph) -> Graph:
    """Induced subgraph on the largest connected component.

    Ties go to the component containing the smallest node id. Node ids are
    re-densified in ascending order of the original ids; labels carry over.
    Discarded nodes are logged.
    """
    if g.node_count == 0:
        raise ValueError("empty graph")
    roots = _component_roots(g)
    # first maximum: the component whose smallest id is smallest
    root = int(np.argmax(np.bincount(roots, minlength=g.node_count)))
    keep = np.flatnonzero(roots == root)
    if keep.size == g.node_count:
        return g
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    edges = g.edges
    edges = remap[edges[roots[edges[:, 0]] == root]]
    labels = None
    if g.node_labels is not None:
        labels = [g.node_labels[old] for old in keep]
    logger.warning(
        "input graph is disconnected; keeping largest component "
        "(%d nodes, discarding %d)",
        keep.size,
        g.node_count - keep.size,
    )
    return Graph.from_edges(keep.size, edges, labels)
