"""Command-line front end: generate networks, estimate dimensions, compare methods.

Exit codes: 0 success, 2 usage/input error, 3 analysis error (including a
trial worker process that died).
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .dimension import DEFAULT_MAX_POINTS, DegenerateScalingError, analyze_matrix
from .generators import MAX_SIERPINSKI_LEVEL, generate_sierpinski
from .graphs import EdgeListError, Graph, largest_component, read_edge_list, save_edge_list
from .metrics import HOP, REPULSION, DistanceMatrix, all_pairs, edge_repulsive_force

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ANALYSIS = 3

logger = logging.getLogger(__name__)


class InputError(Exception):
    """User-facing input problem (bad file, bad generator spec, bad level)."""


def _default_threads() -> int:
    # the CPUs this process may run on, which a container or taskset can narrow
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(usable, 8)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH", help="edge-list file to analyze")
    src.add_argument(
        "--gen",
        metavar="SPEC",
        help="generate the input instead, e.g. sierpinski:3",
    )
    p.add_argument("--trials", type=int, default=1000, help="greedy trials per box size")
    p.add_argument("--seed", type=int, default=42, help="master seed for trial shuffles")
    p.add_argument(
        "--max-points",
        type=int,
        default=DEFAULT_MAX_POINTS,
        help="max box sizes in the sweep (log-snapped when exceeded)",
    )
    p.add_argument(
        "--fit-range",
        nargs=2,
        type=float,
        metavar=("LO", "HI"),
        help="restrict the regression to box sizes in [LO, HI]",
    )
    p.add_argument(
        "--min-lb",
        type=int,
        default=None,
        help="drop schedule box sizes below this value",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes for trials (default: usable CPUs, at most 8)",
    )
    p.add_argument("--csv", metavar="PATH", help="scaling series CSV path")
    p.add_argument("--json", metavar="PATH", help="run summary JSON path")
    p.add_argument(
        "--dump-matrix",
        metavar="PATH",
        help="also write the distance matrix as CSV (row per node)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxdim",
        description="Box-covering fractal dimension of networks "
        "(hop metric and degree-product repulsion metric).",
    )
    parser.add_argument("--version", action="version", version=f"boxdim {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("-q", "--quiet", action="store_true", help="errors only")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a network and write it as an edge list")
    gen.add_argument("kind", choices=["sierpinski"], help="generator family")
    gen.add_argument("--level", type=int, required=True, help="recursion level")
    gen.add_argument("--output", "-o", metavar="PATH", help="edge-list output path")

    dim = sub.add_parser("dim", help="estimate the fractal dimension with one method")
    dim.add_argument(
        "--method",
        choices=[REPULSION, HOP],
        default=REPULSION,
        help="distance metric for the box covering",
    )
    _add_run_options(dim)

    comp = sub.add_parser("compare", help="run both methods on the same component and seed")
    _add_run_options(comp)
    return parser


def _load_input(args) -> tuple[str, Graph]:
    """Resolve --input/--gen to a (dataset name, graph) pair."""
    if args.input is not None:
        path = Path(args.input)
        if not path.is_file():
            raise InputError(f"input file not found: {path}")
        try:
            graph = read_edge_list(path)
        except EdgeListError as exc:
            raise InputError(f"{path}: {exc}") from exc
        return path.stem, graph

    spec = args.gen
    kind, _, arg = spec.partition(":")
    if kind != "sierpinski":
        raise InputError(f"unknown generator {kind!r} (expected sierpinski:LEVEL)")
    try:
        level = int(arg)
    except ValueError:
        raise InputError(f"bad generator spec {spec!r} (expected sierpinski:LEVEL)") from None
    try:
        module = generate_sierpinski(level)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return f"sierpinski{level}", module.graph


def _estimate_dict(est) -> dict:
    return {
        "dimension": est.dimension,
        "dimension_std": est.dimension_std,
        "slope_stderr": est.slope_stderr,
        "r_squared": est.r_squared,
        "points_used": est.points_used,
        "method": est.method,
    }


def _config_dict(args, dataset: str, threads: int) -> dict:
    return {
        "dataset": dataset,
        "input": args.input,
        "gen": args.gen,
        "trials": args.trials,
        "seed": args.seed,
        "max_points": args.max_points,
        "fit_range": list(args.fit_range) if args.fit_range else None,
        "min_lb": args.min_lb,
        "threads": threads,
    }


def write_series_csv(series, path) -> None:
    """Scaling series as CSV; floats keep full round-trip precision."""
    lines = ["l_B,mean_NB,std_NB,min_NB,max_NB"]
    for s in series.stats:
        lines.append(f"{s.box_size},{s.mean!r},{s.std!r},{s.min},{s.max}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_series_csv(path) -> tuple[list[int], list[float]]:
    """Back-parse (box sizes, mean counts) from a scaling series CSV."""
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    sizes, means = [], []
    for row in rows[1:]:
        cells = row.split(",")
        sizes.append(int(cells[0]))
        means.append(float(cells[1]))
    return sizes, means


def _dump_matrix_csv(dm: DistanceMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, dm.dist, fmt="%d", delimiter=",")


def _run_analysis(args, methods: list[str]) -> int:
    if args.trials < 1:
        raise InputError("--trials must be >= 1")
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    if args.threads is not None and args.threads < 1:
        raise InputError("--threads must be >= 1")
    if args.max_points < 3:
        raise InputError("--max-points must be >= 3")
    if args.fit_range is not None:
        lo, hi = args.fit_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InputError("--fit-range bounds must be finite")
        if lo > hi:
            raise InputError(f"--fit-range LO ({lo:g}) must not exceed HI ({hi:g})")
    dataset, graph = _load_input(args)
    # once for every method, so a disconnected input is reported once
    comp = largest_component(graph)
    threads = args.threads if args.threads is not None else _default_threads()
    fit_range = tuple(args.fit_range) if args.fit_range else None
    started = time.perf_counter()

    results = {}
    for method in methods:
        dm = all_pairs(edge_repulsive_force(comp) if method == REPULSION else comp, method)
        series, estimate = analyze_matrix(
            dm,
            comp.edge_count,
            trials=args.trials,
            seed=args.seed,
            max_points=args.max_points,
            fit_range=fit_range,
            workers=threads,
            min_box_size=args.min_lb,
        )
        if args.dump_matrix and method == methods[0]:
            _dump_matrix_csv(dm, args.dump_matrix)
            logger.info("wrote %s", args.dump_matrix)
        # one matrix alive at a time: release it before the next method builds its own
        del dm
        results[method] = (series, estimate)
        csv_path = args.csv if (args.csv and len(methods) == 1) else f"{dataset}.{method}.csv"
        write_series_csv(series, csv_path)
        logger.info("wrote %s", csv_path)

    wall = time.perf_counter() - started
    first_series = results[methods[0]][0]
    summary = {
        "dataset": dataset,
        "nodes": first_series.node_count,
        "edges": first_series.edge_count,
        "methods": {m: _estimate_dict(est) for m, (_, est) in results.items()},
        "wall_seconds": wall,
        "version": __version__,
        "config": _config_dict(args, dataset, threads),
    }
    json_path = args.json or f"{dataset}.{'-'.join(methods)}.json"
    Path(json_path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    logger.info("wrote %s", json_path)

    if len(methods) == 1:
        est = results[methods[0]][1]
        print(f"{est.method}: D_F = {est.dimension:.4f} +/- {est.dimension_std:.4f}")
    else:
        print(f"{'method':<10} {'D_F':>8} {'std':>8} {'r2':>7} {'points':>7}")
        for m in methods:
            est = results[m][1]
            print(
                f"{m:<10} {est.dimension:>8.4f} {est.dimension_std:>8.4f} "
                f"{est.r_squared:>7.4f} {est.points_used:>7d}"
            )
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        module = generate_sierpinski(args.level)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = args.output or f"sierpinski_level{args.level}.txt"
    try:
        save_edge_list(module.graph, out)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc
    g = module.graph
    print(f"wrote {out}: {g.node_count} nodes, {g.edge_count} edges")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    level = logging.WARNING
    if args.verbose:
        level = logging.DEBUG
    elif args.quiet:
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "dim":
            return _run_analysis(args, [args.method])
        return _run_analysis(args, [REPULSION, HOP])
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateScalingError, ValueError, MemoryError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except BrokenExecutor as exc:  # BrokenProcessPool: a trial worker died
        print(f"analysis error: a trial worker process died: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
