#!/usr/bin/env python3
"""Benchmark of boxdim: the `boxdim` CLI end to end, and each layer in a traced run.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload karate-compare --seed 1 --seconds 20 --trace 0

Each workload writes its edge-list input from --seed into .bench_work/. Then

* ``--trace 0`` times whole ``boxdim dim``/``boxdim compare`` processes in a
  closed loop (one estimate at a time, ``--threads 2``) for --seconds and
  reports ``estimate_s``, ``setup_s`` and ``peak_rss_mb``;
* ``--trace 1`` runs the CLI once, then calls each layer's public functions
  in pipeline order with a span around each call, and reports the per-layer
  metrics. Spans stay in memory and are written out when the run ends.

Outputs are checked outside the timed spans. Every CLI run must exit 0 and
its CSV bytes must match the digest recorded for (workload, seed) in
reference_digests.json, or, for an unrecorded seed, the CSV rebuilt from
scipy distances and the library's counts. The traced run also checks the
distance matrix against ``scipy.sparse.csgraph.shortest_path`` and a few
trials against a dense-rule greedy written here.

The last line of stdout is the JSON result: correct, attempted, failed
(estimates that exited nonzero or failed a check) and metrics. The lines
before it give the run facts and the spread of the timed samples; the full
record, spans included, goes to .bench_work/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"

WORKERS = 2  # --threads of every run: the core count of the machine the baseline was taken on
SETUP_REPEATS = 7
ESTIMATE_TIMEOUT_S = 150.0
EXACT_FLOAT_LIMIT = 2**53

# 6-node worked example of the README: edges 1-2, 1-3, 2-3, 3-4, 4-5, 5-6
WORKED_EXAMPLE = "1 2\n1 3\n2 3\n3 4\n4 5\n5 6\n"


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # input family, see edge_lines()
    methods: tuple[str, ...]  # one method runs `boxdim dim`, two run `boxdim compare`
    trials: int
    one_worker_trials: int  # trials timed again at 1 worker in the traced run
    checked_trials: int  # trials compared with the dense-rule greedy in the traced run


WORKLOADS = {
    wl.name: wl
    for wl in (
        # trials set so that covering is most of the time on karate and
        # Sierpinski, and a minority next to all-pairs on the 2859-node graph
        Workload("karate-compare", "karate", ("repulsion", "hop"), 1000, 100, 3),
        Workload("sierpinski5-hop", "sierpinski5", ("hop",), 6, 2, 2),
        # not in BENCHMARK.json: one 30 s estimate per run cannot be made
        # steady on a noisy 2-core host, so it is run by hand
        Workload("ppi-repulsion", "ppi", ("repulsion",), 4, 2, 2),
        # the benchmark's own tests run this one; it takes seconds
        Workload("tiny", "worked-example", ("repulsion", "hop"), 20, 5, 3),
    )
}

END_TO_END_UNITS = {"estimate_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "graphs.load_s": "s",
    "graphs.component_s": "s",
    "metrics.weights_s": "s",
    "metrics.all_pairs_s": "s",
    "metrics.matrix_mb": "MB",
    "dimension.schedule_s": "s",
    "dimension.fit_s": "s",
    "dimension.points": "count",
    "covering.trials_s": "s",
    "covering.trial_ms": "ms",
    "covering.parallel_efficiency": "ratio",
    "covering.smaller_side_share": "ratio",
    "cli.write_s": "s",
    "trace.gap_s": "s",
}


# ---------------------------------------------------------------- inputs


def random_connected_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Random recursive tree plus distinct extra edges up to m (the test suite's scale graph)."""
    rng = np.random.default_rng(seed)
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    while len(edges) < m:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def relabelled(pairs: list[tuple[str, str]], seed: int) -> list[str]:
    """The same graph with node labels permuted and edge lines shuffled by seed."""
    rng = np.random.default_rng(seed)
    labels = list(dict.fromkeys(x for p in pairs for x in p))
    new_label = dict(zip(labels, (rng.permutation(len(labels)) + 1).tolist()))
    flips = rng.random(len(pairs)) < 0.5
    lines = []
    for k in rng.permutation(len(pairs)).tolist():
        a, b = pairs[k]
        if flips[k]:
            a, b = b, a
        lines.append(f"{new_label[a]} {new_label[b]}")
    return lines


def edge_lines(family: str, seed: int) -> list[str]:
    """Edge-list lines of a workload input; the same seed gives the same lines.

    ``ppi`` draws a new 2859-node / 6890-edge graph per seed (seed 7 is the
    graph of the suite's scale test); the fixed graphs are relabelled.
    """
    if family == "ppi":
        return [f"{u} {v}" for u, v in random_connected_edges(2859, 6890, seed)]
    if family == "worked-example":
        text = WORKED_EXAMPLE
    else:
        import boxdim

        graph = boxdim.karate_club() if family == "karate" else boxdim.generate_sierpinski(5).graph
        buf = io.StringIO()
        boxdim.save_edge_list(graph, buf)
        text = buf.getvalue()
    return relabelled([tuple(line.split()) for line in text.splitlines()], seed)


def write_input(wl: Workload, seed: int, work: Path) -> tuple[Path, list[str]]:
    lines = edge_lines(wl.graph, seed)
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"{wl.graph}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, lines


# ------------------------------------------------------------ processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, int, float]:
    """Run argv to completion: (wall seconds, exit code, peak RSS in MB).

    The peak RSS is wait4's ru_maxrss, the largest of the child and the
    descendants it waited for (its fork-pool workers).
    """
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(ESTIMATE_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def setup_seconds(work: Path) -> float:
    """Wall seconds for a fresh interpreter to import boxdim.cli."""
    wall, code, _ = spawn([sys.executable, "-c", "import boxdim.cli"], work, work / "setup.log")
    if code != 0:
        raise RuntimeError(f"`import boxdim.cli` exited {code}; see {work / 'setup.log'}")
    return wall


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Estimate:
    """One CLI process: its cost, its outputs and, once checked, its error."""

    wall_s: float
    peak_rss_mb: float
    exit_code: int
    csv_digests: dict[str, str]
    summary: dict | None
    error: str | None = None


def run_cli(wl: Workload, seed: int, input_path: Path, out: Path) -> Estimate:
    """One `boxdim dim`/`compare` estimate in a fresh process, writing into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.iterdir():
        stale.unlink()
    argv = [sys.executable, "-m", "boxdim.cli"]
    argv += ["dim", "--method", wl.methods[0]] if len(wl.methods) == 1 else ["compare"]
    argv += ["--input", str(input_path), "--trials", str(wl.trials), "--seed", str(seed),
             "--threads", str(WORKERS)]
    wall, code, rss = spawn(argv, out, out.parent / "cli.log")
    stem = input_path.stem
    digests = {m: sha256((out / f"{stem}.{m}.csv").read_bytes())
               for m in wl.methods if (out / f"{stem}.{m}.csv").is_file()}
    summary_path = out / f"{stem}.{'-'.join(wl.methods)}.json"
    summary = json.loads(summary_path.read_text()) if summary_path.is_file() else None
    return Estimate(wall, rss, code, digests, summary)


# ----------------------------------------------------- reference checks


def parse_edges(lines: list[str]) -> tuple[int, np.ndarray, np.ndarray]:
    """Node count and endpoint arrays, ids by first appearance as the loader assigns them."""
    ids: dict[str, int] = {}
    pairs = [[ids.setdefault(x, len(ids)) for x in line.split()] for line in lines]
    arr = np.array(pairs, dtype=np.int64)
    return len(ids), arr[:, 0], arr[:, 1]


def reference_distances(n: int, u: np.ndarray, v: np.ndarray, method: str) -> np.ndarray:
    """All-pairs distances by scipy, exact as int64 (inputs are simple connected graphs)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components, shortest_path

    deg = np.bincount(np.concatenate([u, v]), minlength=n)
    weights = deg[u] * deg[v] if method == "repulsion" else np.ones(u.size, dtype=np.int64)
    adj = coo_matrix((weights.astype(np.float64), (u, v)), shape=(n, n)).tocsr()
    if connected_components(adj, directed=False)[0] != 1:
        raise ValueError("benchmark inputs must be connected")
    dist = shortest_path(adj, method="D", directed=False, unweighted=method == "hop")
    diameter = float(dist.max())
    if not diameter < EXACT_FLOAT_LIMIT:  # float64 sums are exact only below 2^53
        raise ValueError(f"diameter {diameter} is not below 2^53")
    return dist.astype(np.int64)


def dense_rule_counts(dist: np.ndarray, box_sizes, seed: int, trial: int) -> list[int]:
    """Box counts of one trial by the dense greedy rule, in the documented node order.

    Node i of the order takes the smallest color not used by an earlier node
    at distance >= box size.
    """
    n = dist.shape[0]
    order = np.random.default_rng((seed, trial)).permutation(n)
    dp = dist[np.ix_(order, order)]
    counts = []
    for b in box_sizes:
        colors = np.empty(n, dtype=np.int64)
        ncolors = 0
        for i in range(n):
            used = np.zeros(ncolors + 1, dtype=bool)
            used[colors[:i][dp[i, :i] >= b]] = True
            colors[i] = c = int(np.flatnonzero(~used)[0])
            ncolors = max(ncolors, c + 1)
        counts.append(ncolors)
    return counts


def checked_trials(wl: Workload) -> list[int]:
    return sorted({int(t) for t in np.linspace(0, wl.trials - 1, wl.checked_trials)})


def smaller_side_pairs(dist: np.ndarray, box_sizes) -> tuple[int, int]:
    """(pairs on the smaller side of d < l_B, all pairs), each summed over the schedule."""
    n = dist.shape[0]
    pairs = n * (n - 1) // 2
    smaller = 0
    for b in box_sizes:
        near = (int(np.count_nonzero(dist < b)) - n) // 2  # the diagonal is 0 < b
        smaller += min(near, pairs - near)
    return smaller, pairs * len(box_sizes)


def recorded_digests(recorded: dict, wl: Workload, seed: int) -> dict[str, str] | None:
    return recorded.get(wl.name, {}).get(str(seed))


def load_recorded() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


@dataclass
class Reference:
    """What a correct estimate produces, and the run facts found on the way."""

    digests: dict[str, str]
    source: str
    facts: dict


def reference(wl: Workload, seed: int, lines: list[str], recorded: dict, rebuild: bool,
              work: Path) -> Reference:
    """Reference CSV digests: recorded ones, or (when ``rebuild``) the CSV rebuilt from
    scipy distances and the library's counts. Also gathers n, m, diameter and schedule."""
    from boxdim.cli import write_series_csv
    from boxdim.covering import covering_counts
    from boxdim.dimension import build_schedule, series_from_counts
    from boxdim.metrics import DistanceMatrix

    n, u, v = parse_edges(lines)
    known = recorded_digests(recorded, wl, seed)
    ref = Reference(dict(known or {}), "recorded" if known else "rebuilt",
                    {"n": n, "m": int(u.size)})
    for method in wl.methods:
        dist = reference_distances(n, u, v, method)
        dm = DistanceMatrix(metric_kind=method, dist=dist, diameter=int(dist.max()))
        schedule = build_schedule(dm)
        ref.facts[method] = {"diameter": dm.diameter, "schedule": list(schedule.values),
                             "selection_mode": schedule.selection_mode}
        if not known and rebuild:
            counts = covering_counts(dm, schedule.values, wl.trials, seed, workers=WORKERS)
            series = series_from_counts(dm, schedule.values, counts, n, int(u.size))
            csv_path = work / f"reference.{method}.csv"
            write_series_csv(series, csv_path)
            ref.digests[method] = sha256(csv_path.read_bytes())
    return ref


def check_estimate(est: Estimate, ref: Reference) -> None:
    """Set est.error when the estimate failed or its outputs differ from the reference."""
    if est.exit_code != 0:
        est.error = f"exit code {est.exit_code}"
    elif est.summary is None or set(est.csv_digests) != set(ref.digests):
        est.error = "CSV or JSON summary not written"
    elif (est.summary["nodes"], est.summary["edges"]) != (ref.facts["n"], ref.facts["m"]):
        est.error = "node/edge counts differ from the input"
    else:
        for method, digest in est.csv_digests.items():
            if digest != ref.digests[method]:
                est.error = f"{method} CSV differs from the {ref.source} reference"


# ------------------------------------------------------------ run facts


def run_facts() -> dict:
    import importlib.util

    import boxdim
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "backend": "numba" if importlib.util.find_spec("numba") else "numpy-fallback",
        "workers": WORKERS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "boxdim": boxdim.__version__,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


# ------------------------------------------------------------ timed run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_run(wl: Workload, seed: int, seconds: float, recorded: dict) -> dict:
    """Closed loop of CLI estimates for ``seconds``; medians of the end-to-end metrics."""
    work = WORK / f"{wl.name}-seed{seed}"
    input_path, lines = write_input(wl, seed, work)
    setup = [setup_seconds(work) for _ in range(SETUP_REPEATS)]
    estimates: list[Estimate] = []
    started = time.perf_counter()
    while True:
        estimates.append(run_cli(wl, seed, input_path, work / "out"))
        elapsed = time.perf_counter() - started
        # start another estimate only when a typical one still ends within the window
        if elapsed + statistics.median(e.wall_s for e in estimates) > seconds:
            break
    rebuild = any(e.exit_code == 0 for e in estimates)
    ref = reference(wl, seed, lines, recorded, rebuild, work)
    for est in estimates:
        check_estimate(est, ref)
    walls = [e.wall_s for e in estimates]
    failed = sum(e.error is not None for e in estimates)
    return {
        "correct": failed == 0,
        "attempted": len(estimates),
        "failed": failed,
        "metrics": {
            "estimate_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(e.peak_rss_mb for e in estimates),
        },
        "facts": {**run_facts(), **ref.facts, "reference": ref.source,
                  "csv_sha256": estimates[0].csv_digests},
        "samples": {
            "estimate_s": walls,
            "estimate_s_quartiles": quartiles(walls),
            "setup_s": setup,
            "peak_rss_mb": [e.peak_rss_mb for e in estimates],
            "errors": [e.error for e in estimates if e.error],
        },
    }


# ----------------------------------------------------------- traced run


class Tracer:
    """In-memory spans: name, start, end, parent; ``on_path`` marks the calls the CLI makes."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, on_path: bool = True):
        record = {"trace": self.trace_id, "id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None, "on_path": on_path,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def on_path_seconds(self) -> float:
        parents = {s["parent"] for s in self.spans}
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["on_path"] and s["id"] not in parents)


def traced_run(wl: Workload, seed: int, recorded: dict) -> dict:
    """One CLI estimate, then the pipeline layer by layer with spans, then the checks."""
    from boxdim.cli import write_series_csv
    from boxdim.covering import covering_counts
    from boxdim.dimension import build_schedule, estimate_dimension, series_from_counts
    from boxdim.graphs import largest_component, read_edge_list
    from boxdim.metrics import all_pairs, edge_repulsive_force

    work = WORK / f"{wl.name}-seed{seed}"
    input_path, lines = write_input(wl, seed, work)
    cli = run_cli(wl, seed, input_path, work / "out")
    n_ref, u, v = parse_edges(lines)
    known = recorded_digests(recorded, wl, seed)

    tracer = Tracer(f"{wl.name}-seed{seed}")
    errors: list[str] = []
    traced_digests: dict[str, str] = {}
    facts: dict = {}
    one_worker_s = matrix_bytes = points = smaller = pairs = 0
    with tracer.span("pipeline"):
        with tracer.span("graphs.load"):
            graph = read_edge_list(input_path)
        with tracer.span("graphs.component"):
            comp = largest_component(graph)
        for method in wl.methods:
            with tracer.span(f"method.{method}"):
                if method == "repulsion":
                    with tracer.span("metrics.weights"):
                        weighted = edge_repulsive_force(comp)
                with tracer.span("metrics.all_pairs"):
                    dm = all_pairs(weighted if method == "repulsion" else comp, method)
                with tracer.span("dimension.schedule"):
                    schedule = build_schedule(dm)
                with tracer.span("covering.trials"):
                    counts = covering_counts(dm, schedule.values, wl.trials, seed, workers=WORKERS)
                with tracer.span("dimension.fit"):
                    series = series_from_counts(dm, schedule.values, counts,
                                                comp.node_count, comp.edge_count)
                    estimate_dimension(series)
                csv_path = work / f"traced.{method}.csv"
                with tracer.span("cli.write"):
                    write_series_csv(series, csv_path)
                with tracer.span("covering.one_worker", on_path=False) as one:
                    covering_counts(dm, schedule.values, wl.one_worker_trials, seed, workers=1)
                one_worker_s += one["end"] - one["start"]

            # checks, outside the spans
            traced_digests[method] = sha256(csv_path.read_bytes())
            ref_dist = reference_distances(n_ref, u, v, method)
            if not np.array_equal(np.asarray(dm.dist), ref_dist):
                errors.append(f"{method}: distance matrix differs from scipy shortest_path")
            for t in checked_trials(wl):
                if dense_rule_counts(ref_dist, schedule.values, seed, t) != counts[:, t].tolist():
                    errors.append(f"{method}: trial {t} counts differ from the dense-rule greedy")
            if known and known.get(method) != traced_digests[method]:
                errors.append(f"{method}: traced CSV differs from the recorded reference")
            side, total = smaller_side_pairs(ref_dist, schedule.values)
            smaller, pairs = smaller + side, pairs + total
            matrix_bytes = max(matrix_bytes, np.asarray(dm.dist).nbytes)
            points += len(schedule.values)
            facts[method] = {"diameter": dm.diameter, "schedule": list(schedule.values),
                             "selection_mode": schedule.selection_mode}
            del dm, ref_dist, counts
        if "repulsion" not in wl.methods:
            # off the CLI path, but timed on every workload so the weights layer is watched
            with tracer.span("metrics.weights", on_path=False):
                edge_repulsive_force(comp)

    ref = Reference(traced_digests, "traced", {"n": comp.node_count, "m": comp.edge_count})
    check_estimate(cli, ref)
    failed = (cli.error is not None) + bool(errors)
    covering_s = tracer.seconds("covering.trials")
    trial_s = one_worker_s / wl.one_worker_trials
    metrics = {
        "graphs.load_s": tracer.seconds("graphs.load"),
        "graphs.component_s": tracer.seconds("graphs.component"),
        "metrics.weights_s": tracer.seconds("metrics.weights"),
        "metrics.all_pairs_s": tracer.seconds("metrics.all_pairs"),
        "metrics.matrix_mb": matrix_bytes / 1e6,
        "dimension.schedule_s": tracer.seconds("dimension.schedule"),
        "dimension.fit_s": tracer.seconds("dimension.fit"),
        "dimension.points": points,
        "covering.trials_s": covering_s,
        "covering.trial_ms": trial_s * 1e3,
        "covering.parallel_efficiency": trial_s * wl.trials / (WORKERS * covering_s),
        "covering.smaller_side_share": smaller / pairs,
        "cli.write_s": tracer.seconds("cli.write"),
        # negative when process start and import outweigh the tracing overhead
        "trace.gap_s": tracer.on_path_seconds() - cli.wall_s,
    }
    return {
        "correct": failed == 0,
        "attempted": 2,  # the CLI estimate and the traced pipeline
        "failed": failed,
        "metrics": metrics,
        "facts": {**run_facts(), "n": comp.node_count, "m": comp.edge_count, **facts,
                  "reference": "recorded" if known else "traced", "csv_sha256": cli.csv_digests},
        "samples": {"estimate_s": [cli.wall_s], "errors": [e for e in [cli.error, *errors] if e]},
        "spans": tracer.spans,
    }


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "boxdim" / "cli.py").is_file():
        print(f"error: {SRC / 'boxdim'} not found; run from the root of a boxdim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    recorded = load_recorded()
    if args.trace:
        result, units = traced_run(wl, args.seed, recorded), PER_LAYER_UNITS
    else:
        result, units = timed_run(wl, args.seed, args.seconds, recorded), END_TO_END_UNITS

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    print("facts " + json.dumps(result["facts"]))
    print("samples " + json.dumps(result["samples"]))
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": float(result["metrics"][k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
