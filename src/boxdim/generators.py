"""Deterministic benchmark networks: Sierpinski triangle hierarchy, karate club."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph

MAX_SIERPINSKI_LEVEL = 6


@dataclass(frozen=True)
class SierpinskiModule:
    """A level of the self-replicating Sierpinski triangle network.

    ``center`` is the hub every replica wires into; ``corners`` are the three
    outer nodes used when this module is itself replicated.
    """

    graph: Graph
    center: int
    corners: tuple[int, int, int]
    level: int


def generate_sierpinski(level: int) -> SierpinskiModule:
    """Build the Sierpinski triangle network of the given level.

    Level 0 is a complete graph on 4 nodes (one center, three corners). Each
    step keeps the current module and adds three disjoint replicas: the three
    replica centers are joined pairwise, and every replica corner is joined to
    the old center. The new corners are one designated corner from each
    replica (rotating index), so node count is 4^(level+1) and the edge count
    follows m(k+1) = 4*m(k) + 12.

    The construction is pure arithmetic on node ids: identical output across
    runs and platforms.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if level > MAX_SIERPINSKI_LEVEL:
        raise ValueError(f"level above cap ({MAX_SIERPINSKI_LEVEL}): {level}")

    n = 4
    edges: list[tuple[int, int]] = list(combinations(range(4), 2))
    center = 0
    corners = (1, 2, 3)

    for _ in range(level):
        new_edges = list(edges)
        replica_centers = []
        replica_corners = []
        for r in (1, 2, 3):
            off = r * n
            new_edges.extend((u + off, v + off) for u, v in edges)
            replica_centers.append(center + off)
            replica_corners.append(tuple(c + off for c in corners))
        new_edges.extend(combinations(replica_centers, 2))
        new_edges.extend((c, center) for cs in replica_corners for c in cs)
        corners = (replica_corners[0][0], replica_corners[1][1], replica_corners[2][2])
        edges = new_edges
        n *= 4

    graph = Graph.from_edges(n, edges)
    return SierpinskiModule(graph=graph, center=center, corners=corners, level=level)


# Zachary's karate club (34 members, 78 friendships), 0-based ids. Labels are
# the customary 1-based member numbers.
_KARATE_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 10),
    (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31),
    (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30),
    (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32),
    (3, 7), (3, 12), (3, 13),
    (4, 6), (4, 10),
    (5, 6), (5, 10), (5, 16),
    (6, 16),
    (8, 30), (8, 32), (8, 33),
    (9, 33),
    (13, 33),
    (14, 32), (14, 33),
    (15, 32), (15, 33),
    (18, 32), (18, 33),
    (19, 33),
    (20, 32), (20, 33),
    (22, 32), (22, 33),
    (23, 25), (23, 27), (23, 29), (23, 32), (23, 33),
    (24, 25), (24, 27), (24, 31),
    (25, 31),
    (26, 29), (26, 33),
    (27, 33),
    (28, 31), (28, 33),
    (29, 32), (29, 33),
    (30, 32), (30, 33),
    (31, 32), (31, 33),
    (32, 33),
)


def karate_club() -> Graph:
    """The standard Zachary karate-club friendship network (34 nodes, 78 edges)."""
    labels = [str(i + 1) for i in range(34)]
    return Graph.from_edges(34, _KARATE_EDGES, labels)
