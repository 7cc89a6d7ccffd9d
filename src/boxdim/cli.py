"""Command-line front end: generate networks, estimate dimensions, compare methods.

Exit codes: 0 success, 2 usage/input error (including an unreadable input or
an unwritable output file), 3 analysis error (including a worker process
that died).
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .dimension import DEFAULT_MAX_POINTS, pipeline
from .generators import MAX_SIERPINSKI_LEVEL, generate_sierpinski
from .graphs import EdgeListError, Graph, read_edge_list, save_edge_list
from .metrics import HOP, REPULSION, DistanceMatrix
from .pool import usable_workers

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ANALYSIS = 3

logger = logging.getLogger(__name__)


class InputError(Exception):
    """User-facing input problem (bad file, bad generator spec, bad level)."""


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
        help="worker processes for all-pairs and the trials, at most the usable CPUs "
        "(default: at most 8)",
    )
    p.add_argument("--json", metavar="PATH", help="run summary JSON path")
    p.add_argument(
        "--dump-matrix",
        metavar="PATH",
        help="also write the distance matrix as CSV (row per node); "
        "compare writes only the repulsion matrix",
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
    dim.add_argument("--csv", metavar="PATH", help="scaling series CSV path")
    _add_run_options(dim)

    comp = sub.add_parser("compare", help="run both methods on the same component and seed")
    _add_run_options(comp)
    # each method's series goes to <dataset>.<method>.csv
    comp.set_defaults(csv=None)
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
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
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
    """Scaling series as CSV, one line per box size; floats keep full round-trip precision."""
    lines = ["l_B,mean_NB,std_NB,min_NB,max_NB"]
    for b, row in zip(series.box_sizes, series.counts):
        lines.append(f"{b},{float(row.mean())!r},{float(row.std())!r},{row.min()},{row.max()}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


@contextmanager
def _writing(path):
    """Report a failure to write ``path`` as an input error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


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
    for path in (args.csv, args.json, args.dump_matrix):  # refused before the analysis runs
        if path is not None and not Path(path).parent.is_dir():
            raise InputError(f"cannot write {path}: no directory {Path(path).parent}")
    dataset, graph = _load_input(args)
    threads = usable_workers(8 if args.threads is None else args.threads)
    fit_range = tuple(args.fit_range) if args.fit_range else None
    started = time.perf_counter()

    results = {}
    for dm, series, estimate in pipeline(
        graph, methods, args.trials, args.seed, args.max_points, fit_range, threads, args.min_lb
    ):
        method = estimate.method
        if args.dump_matrix and method == methods[0]:
            with _writing(args.dump_matrix):
                _dump_matrix_csv(dm, args.dump_matrix)
            logger.info("wrote %s", args.dump_matrix)
        # one matrix alive at a time: release it before the next method builds its own
        del dm
        results[method] = (series, estimate)
        csv_path = args.csv or f"{dataset}.{method}.csv"
        with _writing(csv_path):
            write_series_csv(series, csv_path)
        logger.info("wrote %s", csv_path)

    wall = time.perf_counter() - started
    first_series = results[methods[0]][0]
    summary = {
        "dataset": dataset,
        "nodes": first_series.node_count,
        "edges": first_series.edge_count,
        "methods": {m: asdict(est) for m, (_, est) in results.items()},
        "wall_seconds": wall,
        "version": __version__,
        "config": _config_dict(args, dataset, threads),
    }
    json_path = args.json or f"{dataset}.{'-'.join(methods)}.json"
    with _writing(json_path):
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
    with _writing(out):
        save_edge_list(module.graph, out)
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
    # basicConfig does nothing once the root logger has a handler, as in a
    # host program that configured logging first
    logging.getLogger("boxdim").setLevel(level)

    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "dim":
            return _run_analysis(args, [args.method])
        return _run_analysis(args, [REPULSION, HOP])
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, MemoryError) as exc:  # DegenerateScalingError is a ValueError
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except BrokenExecutor as exc:  # BrokenProcessPool: an all-pairs or trial worker died
        print(f"analysis error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
