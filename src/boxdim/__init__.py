"""Fractal (box) dimension of networks via greedy box covering.

Supports the classic hop metric and a hub-repulsion metric where every edge
weighs the product of its endpoint degrees and distances are smallest total
force over connecting paths.
"""

from .covering import (
    BoxCovering,
    brute_force_min_boxes,
    covering_counts,
    greedy_box_cover,
)
from .dimension import (
    BoxSizeSchedule,
    DegenerateScalingError,
    DimensionEstimate,
    ScalingSeries,
    analyze,
    build_schedule,
    estimate_dimension,
)
from .generators import MAX_SIERPINSKI_LEVEL, SierpinskiModule, generate_sierpinski, karate_club
from .graphs import (
    EdgeListError,
    Graph,
    degrees,
    largest_component,
    load_edge_list,
    read_edge_list,
    save_edge_list,
)
from .metrics import (
    HOP,
    REPULSION,
    DistanceMatrix,
    WeightedGraph,
    all_pairs,
    distinct_distances,
    edge_repulsive_force,
)

__version__ = "0.1.0"

__all__ = [
    "BoxCovering",
    "BoxSizeSchedule",
    "DegenerateScalingError",
    "DimensionEstimate",
    "DistanceMatrix",
    "EdgeListError",
    "Graph",
    "HOP",
    "MAX_SIERPINSKI_LEVEL",
    "REPULSION",
    "ScalingSeries",
    "SierpinskiModule",
    "WeightedGraph",
    "all_pairs",
    "analyze",
    "brute_force_min_boxes",
    "build_schedule",
    "covering_counts",
    "degrees",
    "distinct_distances",
    "edge_repulsive_force",
    "estimate_dimension",
    "generate_sierpinski",
    "greedy_box_cover",
    "karate_club",
    "largest_component",
    "load_edge_list",
    "read_edge_list",
    "save_edge_list",
    "__version__",
]
