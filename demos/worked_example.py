"""Walk through the repulsion metric on a 6-node illustration graph.

Builds the small graph used throughout the docs (edges 1-2, 1-3, 2-3, 3-4,
4-5, 5-6), weighs each edge with the product of its endpoint degrees, and
shows how the weighted shortest paths drive the box covering.

Run: python demos/worked_example.py
"""
import numpy as np

import boxdim as bd

EDGES = "1 2\n1 3\n2 3\n3 4\n4 5\n5 6\n"

g = bd.load_edge_list(EDGES)
print(f"graph: {g.node_count} nodes, {g.edge_count} edges")
print("degrees:", dict(zip(g.node_labels, bd.degrees(g).tolist())))

wg = bd.edge_repulsive_force(g)
print("\nedge forces (degree products):")
for (u, v), f in zip(g.edges, wg.forces):
    print(f"  {g.label(u)}-{g.label(v)}: {f}")

rep = bd.all_pairs(wg, bd.REPULSION)
hop = bd.all_pairs(g, bd.HOP)
print("\nsmallest-force path matrix:")
print(rep.dist)
print("force diameter:", rep.diameter, "   hop diameter:", hop.diameter)
print("distinct force distances:", bd.distinct_distances(rep))
print("distinct hop distances:  ", bd.distinct_distances(hop))

print("\nbox covering at box size 10 (identity order):")
cov = bd.greedy_box_cover(rep, 10, np.arange(g.node_count))
boxes = {}
for node, color in enumerate(cov.colors):
    boxes.setdefault(int(color), []).append(g.label(node))
for color, members in sorted(boxes.items()):
    print(f"  box {color}: {{{', '.join(members)}}}")
print("boxes used:", cov.box_count, "  exact minimum:", bd.brute_force_min_boxes(rep, 10))

print("\nmean boxes over 200 reshuffled orders, per box size:")
sched = bd.build_schedule(rep)
counts = bd.covering_counts(rep, sched.values, trials=200, master_seed=42)
for b, row in zip(sched.values, counts):
    print(f"  box size {b:>2}: mean N_B = {row.mean():.2f}")

series, est = bd.analyze(g, method=bd.REPULSION, trials=200, seed=42)
print(f"\nfitted dimension: {est.dimension:.4f} +/- {est.dimension_std:.4f} "
      f"(r^2 = {est.r_squared:.3f}, {est.points_used} points)")
