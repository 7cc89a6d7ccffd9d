"""The command line against outputs built from independent oracles.

Each case writes an edge list, runs ``cli.main`` under ``dim`` with each
metric and under ``compare``, and compares the CSV bytes and the JSON
estimates with what the test derives itself: Floyd-Warshall distances, the
schedule restated, the dense greedy rule over each trial's seeded order, the
CSV formatted here, and ``scipy.stats.linregress`` fits.
"""
import bisect
import io
import json
import logging
import math
import os
import re
import tempfile
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

import boxdim as bd
from boxdim import covering
from boxdim.cli import main

from conftest import dense_greedy_colors, floyd_warshall, random_connected_graph, set_usable_cpus

METHODS = (bd.REPULSION, bd.HOP)  # compare's order


@contextmanager
def working_dir(path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def run_main(args) -> tuple[int, str]:
    """``main``'s exit code and stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def write_edge_list(path, edges) -> tuple[int, list[tuple[int, int]]]:
    """Write one "u v" line per edge; returns the node count and the edges in
    the ids the loader gives, by first appearance."""
    ids: dict[int, int] = {}
    for u, v in edges:
        ids.setdefault(u, len(ids))
        ids.setdefault(v, len(ids))
    Path(path).write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    return len(ids), [(ids[u], ids[v]) for u, v in edges]


def oracle_schedule(candidates: list[int], max_points: int) -> list[int]:
    """Every candidate size, or past ``max_points`` of them, log-spaced
    targets each snapped to the nearer candidate (the lower on a tie), with
    both ends kept."""
    if len(candidates) <= max_points:
        return candidates
    picked = {candidates[0], candidates[-1]}
    for target in np.geomspace(candidates[0], candidates[-1], max_points).tolist():
        pos = min(max(bisect.bisect_left(candidates, target), 1), len(candidates) - 1)
        left, right = candidates[pos - 1], candidates[pos]
        picked.add(left if target - left <= right - target else right)
    return sorted(picked)


def oracle_run(n, edges, method, trials, seed, max_points):
    """The CSV bytes and the estimate one method's run should give, or None
    when its sweep has fewer than three sizes."""
    degree = Counter(u for edge in edges for u in edge)
    weighted = [(u, v, 1 if method == bd.HOP else degree[u] * degree[v]) for u, v in edges]
    dist = np.array(floyd_warshall(n, weighted), dtype=np.int64)
    if method == bd.HOP:
        candidates = list(range(1, int(dist.max()) + 1))
    else:
        candidates = sorted(set(dist[~np.eye(n, dtype=bool)].tolist()))
    sizes = oracle_schedule(candidates, max_points)
    if len(sizes) < 3:
        return None
    counts = np.empty((len(sizes), trials), dtype=np.int64)
    for t in range(trials):
        order = np.random.default_rng((seed, t)).permutation(n)
        dp = dist[np.ix_(order, order)]
        counts[:, t] = [dense_greedy_colors(dp, b)[1] for b in sizes]
    lines = ["l_B,mean_NB,std_NB,min_NB,max_NB"]
    for b, row in zip(sizes, counts.tolist()):
        mean = sum(row) / len(row)
        std = math.sqrt(sum((c - mean) * (c - mean) for c in row) / len(row))
        lines.append(f"{b},{mean!r},{std!r},{min(row)},{max(row)}")
    x = np.log(sizes)
    fit = linregress(x, np.log(counts.mean(axis=1)))
    estimate = {
        "dimension": -fit.slope,
        "dimension_std": float(np.std([linregress(x, np.log(col)).slope for col in counts.T])),
        "slope_stderr": fit.stderr,
        "r_squared": fit.rvalue**2,
        "points_used": len(sizes),
        "method": method,
    }
    return ("\n".join(lines) + "\n").encode(), estimate


def assert_outputs_match(code, stderr, expected, csv_paths, json_path):
    """The CSVs of ``csv_paths``' methods and the JSON estimates equal the
    oracle's; a degenerate sweep of any method exits 3 and leaves no CSV and
    no JSON of any method."""
    if any(expected[method] is None for method in csv_paths):
        assert code == 3 and "degenerate scaling range" in stderr, (code, stderr)
        left = [path for path in (*csv_paths.values(), json_path) if Path(path).exists()]
        assert not left, left
        return
    for method, path in csv_paths.items():
        assert Path(path).read_bytes() == expected[method][0], method
    assert code == 0, stderr
    got = json.loads(Path(json_path).read_text(encoding="utf-8"))["methods"]
    assert list(got) == list(csv_paths)
    for method, est in got.items():
        want = expected[method][1]
        assert (est["points_used"], est["method"]) == (want["points_used"], want["method"])
        for key in ("dimension", "dimension_std", "r_squared"):
            assert abs(est[key] - want[key]) <= 1e-12, (method, key, est[key], want[key])
        # near a perfect fit, linregress's 1 - r^2 carries a rounding of some
        # 1e-16, which the square root lifts to 1e-8: compare the variances
        assert abs(est["slope_stderr"] ** 2 - want["slope_stderr"] ** 2) <= 1e-12, method


def run_and_check(edges, trials, seed, max_points, threads):
    """Run dim under each metric and compare in the working directory, and
    check every output against the oracle."""
    n, ids = write_edge_list("g.txt", edges)
    expected = {m: oracle_run(n, ids, m, trials, seed, max_points) for m in METHODS}
    common = [
        "--input", "g.txt", "--trials", str(trials), "--seed", str(seed),
        "--max-points", str(max_points), "--threads", str(threads),
    ]
    for m in METHODS:
        csv, js = f"dim.{m}.{threads}.csv", f"dim.{m}.{threads}.json"
        code, err = run_main(["dim", *common, "--method", m, "--csv", csv, "--json", js])
        assert_outputs_match(code, err, expected, {m: csv}, js)
    js = f"compare.{threads}.json"
    code, err = run_main(["compare", *common, "--json", js])
    assert_outputs_match(code, err, expected, {m: f"g.{m}.csv" for m in METHODS}, js)


@st.composite
def connected_edge_lists(draw):
    """A connected graph of 2 to 40 nodes as edges in a drawn order: a random
    recursive tree, then distinct extra edges."""
    n = draw(st.integers(2, 40))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    seen = {frozenset(e) for e in edges}
    node = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    return draw(st.permutations(edges))


@given(
    edges=connected_edge_lists(),
    trials=st.integers(1, 5),
    seed=st.integers(0, 2**32),
    max_points=st.integers(3, 15),
)
# a path of hop diameter 5 at --max-points 5 sweeps all five sizes; log-snapping would drop 4
@example(edges=[(i, i + 1) for i in range(5)], trials=2, seed=0, max_points=5)
@settings(max_examples=40, deadline=None)
def test_small_graphs_match_oracle(edges, trials, seed, max_points):
    # graphs of at most 64 nodes color their trials in lockstep, in process
    with tempfile.TemporaryDirectory() as out, working_dir(out):
        run_and_check(edges, trials, seed, max_points, threads=1)


@pytest.mark.parametrize("graph_seed, extra", [(2, 40), (5, 150)])
def test_large_graphs_match_oracle_at_1_and_2_threads(
    tmp_path, caplog, monkeypatch, graph_seed, extra
):
    # above 64 nodes each trial walks near lists or reach rows, as the plan
    # logs for each size, and at 2 threads the trials run on forked workers,
    # which each leave a file named for their process id
    set_usable_cpus(monkeypatch, 2)
    trial_counts, pids = covering._trial_counts, tmp_path / "pids"
    pids.mkdir()

    def marked(*args):
        (pids / str(os.getpid())).touch()
        return trial_counts(*args)

    monkeypatch.setattr(covering, "_trial_counts", marked)
    edges = random_connected_graph(100, extra, seed=graph_seed).edges.tolist()
    with working_dir(tmp_path), caplog.at_level(logging.DEBUG, logger="boxdim.covering"):
        for threads in (1, 2):
            run_and_check(edges, 3, 7, 15, threads)
    # each size's step, where it walks some node
    walking = re.compile(r": (near lists|reach), \d+ list entries, [1-9]\d* nodes walked")
    steps = {m[1] for r in caplog.records if (m := walking.search(r.getMessage()))}
    assert steps == {"near lists", "reach"}
    assert {int(p.name) for p in pids.iterdir()} - {os.getpid()}, "no trial ran on a forked worker"
