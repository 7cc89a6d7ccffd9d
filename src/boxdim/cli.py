"""Command-line front end: generate networks, estimate dimensions, compare methods.

Exit codes: 0 success, 2 usage/input error (including an unreadable input or
an unwritable output file), 3 analysis error (including a worker process
that died), 130 interrupted (Ctrl-C). A run that fails, or is interrupted,
removes every regular file it opened for writing, written in full or not.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .dimension import DEFAULT_MAX_POINTS, pipeline
from .generators import generate_sierpinski
from .graphs import EdgeListError, Graph, read_edge_list, save_edge_list
from .metrics import HOP, REPULSION, ArgumentError, check_run
from .pool import usable_workers

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ANALYSIS = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

logger = logging.getLogger(__name__)

# the flag of each run argument that check_run names
_FLAGS = {"trials": "--trials", "seed": "--seed", "max_points": "--max-points",
          "fit_range": "--fit-range", "workers": "--threads"}


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
        help="restrict the regression to box sizes in [LO, HI]; the CSV keeps every swept size",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=8,
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


def _source(args) -> tuple[str, Path | int]:
    """The dataset name and the input file or generator level of --input/--gen; reads nothing."""
    if args.input is not None:
        return Path(args.input).stem, Path(args.input)
    kind, _, arg = args.gen.partition(":")
    if kind != "sierpinski":
        raise InputError(f"unknown generator {kind!r} (expected sierpinski:LEVEL)")
    try:
        level = int(arg)
    except ValueError:
        raise InputError(f"bad generator spec {args.gen!r} (expected sierpinski:LEVEL)") from None
    return f"sierpinski{level}", level


def _load_input(source: Path | int) -> Graph:
    """The graph of ``_source``'s input file or generator level."""
    if isinstance(source, int):
        try:
            return generate_sierpinski(source).graph
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if not source.is_file():
        raise InputError(f"input file not found: {source}")
    try:
        return read_edge_list(source)
    except EdgeListError as exc:
        raise InputError(f"{source}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc


def write_series_csv(series, target) -> None:
    """Scaling series as CSV, one line per box size, to a path or an open text file."""
    if not hasattr(target, "write"):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            return write_series_csv(series, fh)
    target.write("l_B,mean_NB,std_NB,min_NB,max_NB\n")
    for b, row in zip(series.box_sizes, series.counts):  # repr: floats round-trip exactly
        target.write(f"{b},{float(row.mean())!r},{float(row.std())!r},{row.min()},{row.max()}\n")


@contextmanager
def _outputs(paths, source=None):
    """Refuse a bad output before anything is read, then yield ``write(path, emit)``.

    Each path is resolved once, following symbolic links; a directory, a missing directory, or the
    input ``source`` or another output (by device and inode if it exists, else by resolved path) is
    exit 2. ``write`` opens the path as given (a pipe has no resolved file). If the block raises,
    Ctrl-C included, every regular file opened is removed: a link keeps, the file it names goes."""
    def identity(real: Path):
        with suppress(OSError):
            st = real.stat()
            return st.st_dev, st.st_ino
        return real

    files = {identity(Path(os.path.realpath(source)))} if source else set()
    real = {}
    for path in filter(None, paths):
        real[path] = target = Path(os.path.realpath(path))
        if target.is_dir():
            raise InputError(f"cannot write {path}: it is a directory")
        if not target.parent.is_dir():
            raise InputError(f"cannot write {path}: no directory {target.parent}")
        if (key := identity(target)) in files:
            raise InputError(f"cannot write {path}: it is the input or another output of this run")
        files.add(key)
    opened = []

    def write(path, emit) -> None:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                if os.path.isfile(path):  # never a device such as /dev/null, nor a pipe
                    opened.append(real[path])
                emit(fh)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
        logger.info("wrote %s", path)

    try:
        yield write
    except BaseException:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def _run_analysis(args, methods: list[str]) -> int:
    # every argument and output path is refused before the input is read
    try:
        check_run(args.trials, args.seed, args.max_points, args.fit_range, args.threads)
    except ArgumentError as exc:
        raise InputError(f"{_FLAGS[exc.name]} {exc.rule}") from None
    dataset, source = _source(args)
    csv_paths = {method: args.csv or f"{dataset}.{method}.csv" for method in methods}
    json_path = args.json or f"{dataset}.{'-'.join(methods)}.json"
    results = {}
    with _outputs([args.dump_matrix, *csv_paths.values(), json_path], args.input) as write:
        started = time.perf_counter()  # wall_seconds includes reading the input
        graph = _load_input(source)
        threads = usable_workers(args.threads)
        for dm, series, estimate in pipeline(
            graph, methods, args.trials, args.seed, args.max_points, args.fit_range, threads
        ):
            method = estimate.method
            if args.dump_matrix and method == methods[0]:
                write(args.dump_matrix, lambda fh: np.savetxt(fh, dm.dist, fmt="%d", delimiter=","))
            # one matrix alive at a time: release it before the next method builds its own
            del dm
            results[method] = (series, estimate)
            write(csv_paths[method], lambda fh: write_series_csv(series, fh))

        first_series = results[methods[0]][0]
        summary = {
            "dataset": dataset,
            "nodes": first_series.node_count,
            "edges": first_series.edge_count,
            "methods": {m: asdict(est) for m, (_, est) in results.items()},
            "wall_seconds": time.perf_counter() - started,
            "version": __version__,
            "config": {
                "dataset": dataset,
                "input": args.input,
                "gen": args.gen,
                "trials": args.trials,
                "seed": args.seed,
                "max_points": args.max_points,
                "fit_range": args.fit_range,
                "threads": threads,
            },
        }
        write(json_path, lambda fh: fh.write(json.dumps(summary, indent=2) + "\n"))

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
    out = args.output or f"sierpinski_level{args.level}.txt"
    with _outputs([out]) as write:
        g = _load_input(args.level)
        write(out, lambda fh: save_edge_list(g, fh))
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
    except KeyboardInterrupt:  # _outputs has already removed what the run opened
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
