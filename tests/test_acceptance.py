"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each criterion prints a PASS line when its assertions hold (visible with
``pytest -s`` or on failure). Criterion 4 needs the user-supplied football
dataset (BOXDIM_FOOTBALL env var or data/football.txt) and is skipped when
absent. One sub-claim of criterion 1 is a verified defect and is marked as a
strict expected failure; see the notes accompanying the repository.
"""
import math
import os
import time
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import boxdim as bd
from boxdim.cli import main
from boxdim.pool import usable_workers

from conftest import (
    floyd_warshall,
    graph_weighted_edges,
    is_valid_covering,
    random_connected_graph,
    trial_counts,
)

SIERPINSKI_TARGET = math.log(3) / math.log(2)  # 1.5850


def ok(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_worked_example_golden(example6, example6_repulsion):
    wg = bd.edge_repulsive_force(example6)
    assert sorted(wg.forces) == [2, 4, 4, 6, 6, 6]
    assert example6_repulsion.diameter == 18
    # includes 16, which the source text's own enumeration omits
    assert bd.distinct_distances(example6_repulsion).tolist() == [2, 4, 6, 10, 12, 16, 18]
    cov = bd.greedy_box_cover(example6_repulsion, 10, range(6))
    assert cov.box_count == 2
    assert is_valid_covering(example6_repulsion, cov)
    assert bd.brute_force_min_boxes(example6_repulsion, 10) == 2
    ok(1, "worked-example golden values; all-orders sub-claim tracked separately")


@pytest.mark.xfail(
    strict=True,
    reason="verified defect: 80 of 720 greedy orders yield 3 boxes at box size 10 "
    "(e.g. coloring nodes 3,4 first boxes them together); the optimum 2 is not "
    "reached by every order",
)
def test_criterion_1_every_order_subclaim(example6_repulsion):
    counts = {
        bd.greedy_box_cover(example6_repulsion, 10, p).box_count
        for p in permutations(range(6))
    }
    assert counts == {2}


def test_criterion_2_synthetic_regression_exactness():
    sizes = [1, 2, 4, 8]
    counts = [[64 // b**2] for b in sizes]
    series = bd.ScalingSeries(sizes, counts, bd.REPULSION, node_count=0, edge_count=0)
    est = bd.estimate_dimension(series)
    assert abs(est.dimension - 2.0) < 1e-9
    assert abs(est.r_squared - 1.0) < 1e-9
    ok(2, "synthetic power-law exponent recovered exactly")


def test_criterion_3_karate_dimension_bands(karate):
    started = time.perf_counter()
    _, rep = bd.analyze(karate, method=bd.REPULSION, trials=1000, seed=42)
    _, hop = bd.analyze(karate, method=bd.HOP, trials=1000, seed=42)
    elapsed = time.perf_counter() - started
    assert 0.80 <= rep.dimension <= 1.30, rep
    assert 1.70 <= hop.dimension <= 2.40, hop
    assert elapsed < 10.0
    ok(3, f"karate: repulsion {rep.dimension:.4f}, hop {hop.dimension:.4f} in {elapsed:.1f}s")


def _football_path():
    env = os.environ.get("BOXDIM_FOOTBALL")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "football.txt"


def test_criterion_4_football_bands():
    path = _football_path()
    if not path.is_file():
        pytest.skip(
            "football dataset not supplied; place it at data/football.txt or "
            "set BOXDIM_FOOTBALL"
        )
    g = bd.read_edge_list(path)
    started = time.perf_counter()
    _, rep = bd.analyze(g, method=bd.REPULSION, trials=1000, seed=42, workers=2)
    _, hop = bd.analyze(g, method=bd.HOP, trials=1000, seed=42, workers=2)
    elapsed = time.perf_counter() - started
    assert 1.60 <= rep.dimension <= 2.40, rep
    assert 2.30 <= hop.dimension <= 3.10, hop
    assert elapsed < 30.0
    ok(4, f"football: repulsion {rep.dimension:.4f}, hop {hop.dimension:.4f} in {elapsed:.1f}s")


def test_criterion_5_sierpinski_comparative_claim():
    started = time.perf_counter()
    g = bd.generate_sierpinski(5).graph
    assert g.node_count == 4096
    workers = usable_workers(8)  # the CLI default
    _, rep = bd.analyze(g, method=bd.REPULSION, trials=100, seed=42, workers=workers)
    _, hop = bd.analyze(g, method=bd.HOP, trials=100, seed=42, workers=workers)
    elapsed = time.perf_counter() - started
    assert abs(rep.dimension - SIERPINSKI_TARGET) < abs(hop.dimension - SIERPINSKI_TARGET)
    assert elapsed < 600.0
    ok(
        5,
        f"sierpinski level 5: |{rep.dimension:.4f} - 1.585| < |{hop.dimension:.4f} - 1.585| "
        f"in {elapsed:.0f}s",
    )


def test_criterion_6_greedy_vs_exact_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for i in range(200):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(n, int(rng.integers(0, 2 * n)), seed=10_000 + i)
        metric = bd.REPULSION if i % 2 else bd.HOP
        dm = bd.all_pairs(g, metric)
        for lb in bd.distinct_distances(dm):
            cov = bd.greedy_box_cover(dm, int(lb), rng.permutation(dm.n))
            assert is_valid_covering(dm, cov)
            assert cov.box_count >= bd.brute_force_min_boxes(dm, int(lb))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(6, f"greedy >= exact minimum on 200 random graphs in {elapsed:.1f}s")


def test_criterion_7_metric_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for i in range(100):
        n = int(rng.integers(2, 51))
        g = random_connected_graph(n, int(rng.integers(0, n)), seed=20_000 + i)
        for metric in (bd.HOP, bd.REPULSION):
            dm = bd.all_pairs(g, metric)
            oracle = floyd_warshall(n, graph_weighted_edges(g, metric))
            assert dm.dist.tolist() == oracle
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(7, f"all-pairs distances match cubic oracle on 100 graphs in {elapsed:.1f}s")


def test_criterion_8_deterministic_csv(tmp_path, karate, capsys):
    src = tmp_path / "karate.txt"
    bd.save_edge_list(karate, src)
    blobs = []
    for tag, threads in (("r1", "1"), ("r2", "1"), ("r3", "8")):
        csv = tmp_path / f"{tag}.csv"
        code = main(
            [
                "dim", "--input", str(src), "--method", "repulsion",
                "--trials", "200", "--seed", "42",
                "--csv", str(csv), "--json", str(tmp_path / f"{tag}.json"),
                "--threads", threads,
            ]
        )
        assert code == 0
        blobs.append(csv.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1] == blobs[2]
    ok(8, "byte-identical CSV across repeat runs and --threads 1 vs 8")


def test_criterion_9_trivial_endpoints(example6, karate):
    fixtures = []
    for g in (example6, karate, bd.generate_sierpinski(2).graph):
        fixtures.append(bd.all_pairs(g, bd.HOP))
        fixtures.append(bd.all_pairs(bd.edge_repulsive_force(g), bd.REPULSION))
    for dm in fixtures:
        smallest = int(bd.distinct_distances(dm)[0])
        at_min = trial_counts(dm, smallest, trials=3, master_seed=0)
        beyond = trial_counts(dm, dm.diameter + 1, trials=3, master_seed=0)
        assert at_min.mean() == dm.n and at_min.std() == 0.0
        assert beyond.mean() == 1.0 and beyond.std() == 0.0
    ok(9, "N_B = n at the smallest distance and N_B = 1 beyond the diameter")


def test_ecoli_scale_runtime():
    # comparable in size to the 2859-node / 6890-edge protein network
    g = random_connected_graph(2859, 6890 - 2858, seed=7)
    assert (g.node_count, g.edge_count) == (2859, 6890)
    started = time.perf_counter()
    _, est = bd.analyze(g, method=bd.REPULSION, trials=1000, seed=42, workers=2)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert est.points_used >= 3
    ok("E", f"2859-node pipeline with 1000 trials in {elapsed:.0f}s")
