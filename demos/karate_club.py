"""Estimate the fractal dimension of Zachary's karate club both ways.

The hub-repulsion metric spreads the hubs across boxes and yields a markedly
lower dimension than the hop-count baseline on this network.

Run: python demos/karate_club.py
"""
import boxdim as bd

g = bd.karate_club()
print(f"karate club: {g.node_count} nodes, {g.edge_count} edges, "
      f"max degree {int(bd.degrees(g).max())}")

results = {}
for method in (bd.REPULSION, bd.HOP):
    series, est = bd.analyze(g, method=method, trials=1000, seed=42)
    results[method] = (series, est)

print(f"\n{'method':<10} {'D_F':>8} {'std':>8} {'r2':>7} {'points':>7}")
for method, (series, est) in results.items():
    print(f"{method:<10} {est.dimension:>8.4f} {est.dimension_std:>8.4f} "
          f"{est.r_squared:>7.4f} {est.points_used:>7d}")

print("\nscaling series (repulsion):")
series, _ = results[bd.REPULSION]
print(f"{'box size':>9} {'mean N_B':>9} {'std':>7}")
for b, row in zip(series.box_sizes, series.counts):  # one row of trial counts per size
    print(f"{b:>9} {row.mean():>9.2f} {row.std():>7.3f}")
