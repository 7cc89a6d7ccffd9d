import builtins
import errno
import io
import json
import logging
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import boxdim as bd
from boxdim import cli, covering, dimension, graphs, metrics
from boxdim.cli import main, write_series_csv
from boxdim.pool import usable_workers

from conftest import (
    die_on_slice,
    die_on_trial,
    floyd_warshall,
    graph_weighted_edges,
    read_series_csv,
    set_usable_cpus,
    time_limit,
)


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse refuses a bad command line with exit 2
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def track_calls(monkeypatch, home, name):
    """Wrap ``home.<name>`` in every boxdim module that binds it.

    Returns a list that gets one entry per call: how many results of earlier
    calls were still alive when it was made (results are held weakly).
    """
    real = getattr(home, name)
    earlier = []
    calls = []

    def tracked(*args, **kwargs):
        calls.append(sum(ref() is not None for ref in earlier))
        out = real(*args, **kwargs)
        earlier.append(weakref.ref(out))
        return out

    for module in (home, dimension, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, tracked)
    return calls


def fail_writes(monkeypatch, path, exc, room=None):
    """Make the open of ``path`` for writing raise ``exc``; given ``room``, open it, and make
    its first write put ``room`` characters in the file and then raise ``exc``, as a full disk."""
    real = io.open
    target = os.path.abspath(path)

    def opener(file, mode="r", *args, **kwargs):
        if "w" not in mode or not isinstance(file, (str, os.PathLike)) or os.path.abspath(file) != target:
            return real(file, mode, *args, **kwargs)
        if room is None:
            raise exc
        fh = real(file, mode, *args, **kwargs)
        write = fh.write

        def short(text):
            write(text[:room])
            raise exc

        fh.write = short
        return fh

    # pathlib opens through io.open, everything else through the builtin
    monkeypatch.setattr(io, "open", opener)
    monkeypatch.setattr(builtins, "open", opener)


def no_space() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def matrix_rows(dm) -> bytes:
    """The --dump-matrix format, one comma-separated row per node, cell by cell."""
    return "".join(",".join(str(int(x)) for x in row) + "\n" for row in dm.dist).encode()


class TestGen:
    def test_level1(self, tmp_path, capsys):
        out = tmp_path / "s1.txt"
        code, stdout, _ = run_cli(["gen", "sierpinski", "--level", "1", "-o", str(out)], capsys)
        assert code == 0
        assert "16 nodes, 36 edges" in stdout
        g = bd.read_edge_list(out)
        assert (g.node_count, g.edge_count) == (16, 36)

    def test_level0(self, tmp_path, capsys):
        out = tmp_path / "s0.txt"
        code, stdout, _ = run_cli(["gen", "sierpinski", "--level", "0", "-o", str(out)], capsys)
        assert code == 0
        g = bd.read_edge_list(out)
        assert (g.node_count, g.edge_count) == (4, 6)

    def test_level_above_cap(self, tmp_path, capsys):
        out = tmp_path / "nope.txt"
        code, _, stderr = run_cli(["gen", "sierpinski", "--level", "99", "-o", str(out)], capsys)
        assert code == 2
        assert "level above cap" in stderr
        assert not out.exists()

    def test_full_disk_removes_the_part_written_edge_list(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        fail_writes(monkeypatch, "out.txt", no_space(), room=4)
        code, stdout, stderr = run_cli(["gen", "sierpinski", "--level", "2", "-o", "out.txt"], capsys)
        assert (code, stdout) == (2, "")
        assert "error: cannot write out.txt: [Errno 28] " in stderr
        assert list(tmp_path.iterdir()) == []

    def test_output_naming_a_directory_exit_2_before_generating(
        self, tmp_path, capsys, monkeypatch
    ):
        loads = []
        monkeypatch.setattr(cli, "_load_input", loads.append)
        args = ["gen", "sierpinski", "--level", "2", "-o", str(tmp_path)]
        code, stdout, stderr = run_cli(args, capsys)
        assert (code, stdout) == (2, "")
        assert f"error: cannot write {tmp_path}: it is a directory" in stderr
        assert loads == []


@pytest.fixture
def karate_file(tmp_path, karate):
    path = tmp_path / "karate.txt"
    bd.save_edge_list(karate, path)
    return path


class TestDim:
    def test_karate_repulsion(self, karate_file, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        js = tmp_path / "summary.json"
        code, stdout, _ = run_cli(
            [
                "dim", "--input", str(karate_file), "--method", "repulsion",
                "--trials", "120", "--seed", "42",
                "--csv", str(csv), "--json", str(js), "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        assert "D_F" in stdout
        summary = json.loads(js.read_text())
        assert summary["nodes"] == 34
        assert summary["edges"] == 78
        est = summary["methods"]["repulsion"]
        assert 0.7 < est["dimension"] < 1.4
        assert summary["config"]["seed"] == 42
        assert summary["version"] == bd.__version__

        header = csv.read_text().splitlines()[0]
        assert header == "l_B,mean_NB,std_NB,min_NB,max_NB"

    def test_csv_round_trip_reproduces_dimension(self, karate_file, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        js = tmp_path / "summary.json"
        code, _, _ = run_cli(
            [
                "dim", "--input", str(karate_file), "--method", "hop",
                "--trials", "80", "--seed", "7",
                "--csv", str(csv), "--json", str(js), "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        sizes, means = read_series_csv(csv)
        x = np.log(np.asarray(sizes, dtype=float))
        y = np.log(np.asarray(means))
        xc = x - x.mean()
        slope = float(xc @ (y - y.mean())) / float(xc @ xc)
        reported = json.loads(js.read_text())["methods"]["hop"]["dimension"]
        assert -slope == reported

    def test_degenerate_input_exit_3(self, tmp_path, capsys):
        tri = tmp_path / "tri.txt"
        tri.write_text("1 2\n2 3\n3 1\n")
        code, _, stderr = run_cli(
            ["dim", "--input", str(tri), "--trials", "5"], capsys
        )
        assert code == 3
        assert "degenerate scaling range" in stderr

    def test_dead_worker_exit_3(self, karate_file, tmp_path, capsys, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        die_on_trial(monkeypatch, 1)
        with time_limit(60):
            code, _, stderr = run_cli(
                [
                    # 256 nodes, so the trials run on forked workers
                    "dim", "--gen", "sierpinski:3", "--method", "hop", "--trials", "8",
                    "--csv", str(tmp_path / "s.csv"), "--json", str(tmp_path / "s.json"),
                    "--threads", "2",
                ],
                capsys,
            )
        assert code == 3
        assert "worker process died" in stderr

    def test_dead_all_pairs_worker_exit_3(self, tmp_path, capsys, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(metrics, "_FORK_NODES", 1)
        die_on_slice(monkeypatch, 128)  # the second of 256 columns
        with time_limit(60):
            code, _, stderr = run_cli(
                [
                    "dim", "--gen", "sierpinski:3", "--method", "hop", "--trials", "2",
                    "--csv", str(tmp_path / "s.csv"), "--json", str(tmp_path / "s.json"),
                    "--threads", "2",
                ],
                capsys,
            )
        assert code == 3
        assert "analysis error: a worker process died" in stderr

    def test_unmappable_matrix_exit_3(self, tmp_path, capsys, monkeypatch):
        import mmap

        def failing(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(metrics, "_FORK_NODES", 1)
        monkeypatch.setattr(mmap, "mmap", failing)
        code, _, stderr = run_cli(
            [
                "dim", "--gen", "sierpinski:3", "--method", "hop", "--trials", "2",
                "--csv", str(tmp_path / "s.csv"), "--json", str(tmp_path / "s.json"),
                "--threads", "2",
            ],
            capsys,
        )
        assert code == 3
        assert "analysis error: cannot map the 65536-byte distance matrix" in stderr

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        code, _, stderr = run_cli(["dim", "--input", str(missing)], capsys)
        assert code == 2
        assert str(missing) in stderr

    def test_unparseable_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\noops\n")
        code, _, stderr = run_cli(["dim", "--input", str(bad)], capsys)
        assert code == 2
        assert "line 2" in stderr

    def test_unreadable_file_exit_2(self, karate_file, capsys, monkeypatch):
        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "read_edge_list", refuse)
        code, _, stderr = run_cli(["dim", "--input", str(karate_file)], capsys)
        assert code == 2
        assert f"error: cannot read {karate_file}: " in stderr
        assert "Traceback" not in stderr

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 2\n\xff 3\n")
        code, _, stderr = run_cli(["dim", "--input", str(path)], capsys)
        assert code == 2
        assert f"error: cannot read {path}: " in stderr and "utf-8" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("flag", ["--csv", "--json", "--dump-matrix"])
    def test_unwritable_output_exit_2(self, karate_file, tmp_path, capsys, monkeypatch, flag):
        # refused before any analysis: building a matrix fails the test
        def no_analysis(*args, **kwargs):
            raise AssertionError("the analysis ran")

        monkeypatch.setattr(dimension, "all_pairs", no_analysis)
        paths = {"--csv": tmp_path / "s.csv", "--json": tmp_path / "s.json"}
        paths[flag] = tmp_path / "missing" / "out"
        args = ["dim", "--input", str(karate_file), "--method", "hop", "--trials", "5"]
        for option, path in paths.items():
            args += [option, str(path)]
        code, _, stderr = run_cli(args, capsys)
        assert code == 2
        assert f"error: cannot write {paths[flag]}: " in stderr

    @pytest.mark.parametrize("flag", ["--csv", "--json", "--dump-matrix"])
    def test_output_naming_a_directory_exit_2_before_loading(
        self, karate_file, tmp_path, capsys, monkeypatch, flag
    ):
        loads = []
        monkeypatch.setattr(cli, "_load_input", loads.append)
        paths = {"--csv": tmp_path / "s.csv", "--json": tmp_path / "s.json"}
        paths[flag] = tmp_path / "out"
        paths[flag].mkdir()
        args = ["dim", "--input", str(karate_file), "--method", "hop", "--trials", "5"]
        for option, path in paths.items():
            args += [option, str(path)]
        code, _, stderr = run_cli(args, capsys)
        assert code == 2
        assert f"error: cannot write {paths[flag]}: it is a directory" in stderr
        assert loads == []

    def test_broken_link_into_a_missing_directory_exit_2_before_loading(
        self, karate_file, tmp_path, capsys, monkeypatch
    ):
        # the link's own directory exists; the directory of the file it names does not
        link = tmp_path / "l.csv"
        link.symlink_to(tmp_path / "missing" / "target.csv")
        loads = []
        monkeypatch.setattr(cli, "_load_input", loads.append)
        args = ["dim", "--input", str(karate_file), "--trials", "5", "--csv", str(link),
                "--json", str(tmp_path / "s.json")]
        code, _, stderr = run_cli(args, capsys)
        assert code == 2
        assert f"error: cannot write {link}: no directory {tmp_path / 'missing'}" in stderr
        assert loads == []
        assert link.is_symlink()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_json_to_a_pipe(self, karate_file, tmp_path, capsys):
        # /dev/fd/N of a pipe resolves to no file, so the write must open the path as given
        r, w = os.pipe()
        try:
            args = ["dim", "--input", str(karate_file), "--method", "hop", "--trials", "5",
                    "--csv", str(tmp_path / "s.csv"), "--json", f"/dev/fd/{w}"]
            code, _, stderr = run_cli(args, capsys)
        finally:
            os.close(w)
        with os.fdopen(r, encoding="utf-8") as fh:
            summary = json.loads(fh.read())
        assert (code, stderr) == (0, "")
        assert (summary["dataset"], summary["nodes"]) == ("karate", 34)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["karate.txt", "s.csv"]

    def test_bad_trials_exit_2(self, karate_file, capsys):
        code, _, stderr = run_cli(
            ["dim", "--input", str(karate_file), "--trials", "0"], capsys
        )
        assert code == 2
        assert "--trials" in stderr

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--seed", "-1"),
            ("--threads", "0"),
            ("--threads", "-3"),
            ("--max-points", "2"),
            ("--fit-range", "5 2"),
            ("--fit-range", "nan 3"),
            ("--fit-range", "1 inf"),
            ("--csv", "x.csv"),
        ],
    )
    def test_bad_option_exit_2_before_loading(
        self, karate_file, capsys, monkeypatch, option, value
    ):
        loads = []
        monkeypatch.setattr(cli, "_load_input", loads.append)
        code, _, stderr = run_cli(
            ["compare", "--input", str(karate_file), "--trials", "5", option, *value.split()],
            capsys,
        )
        assert code == 2
        assert option in stderr
        # refused before the input is read
        assert loads == []

    def test_wall_seconds_include_the_load(self, karate_file, tmp_path, capsys, monkeypatch):
        load = cli._load_input

        def slow_load(args):
            time.sleep(0.3)
            return load(args)

        monkeypatch.setattr(cli, "_load_input", slow_load)
        js = tmp_path / "k.json"
        code, _, _ = run_cli(
            ["dim", "--input", str(karate_file), "--trials", "5", "--csv", str(tmp_path / "k.csv"),
             "--json", str(js)],
            capsys,
        )
        assert code == 0
        assert json.loads(js.read_text())["wall_seconds"] >= 0.3

    def test_generated_input(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run_cli(
            ["dim", "--gen", "sierpinski:2", "--method", "hop", "--trials", "20", "--threads", "1"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "sierpinski2.hop.csv").exists()

    def test_min_lb_is_not_an_option(self, capsys):
        # --fit-range LO HI, with HI at or above the largest size, fits from LO up
        args = ["dim", "--gen", "sierpinski:2", "--trials", "5", "--min-lb", "2"]
        code, _, stderr = run_cli(args, capsys)
        assert code == 2
        assert "unrecognized arguments: --min-lb 2" in stderr

    def test_bad_generator_spec(self, capsys):
        code, _, stderr = run_cli(["dim", "--gen", "menger:2", "--trials", "5"], capsys)
        assert code == 2
        assert "menger" in stderr

    @pytest.mark.parametrize(
        "spec, message",
        [("sierpinski:x", "bad generator spec 'sierpinski:x'"), ("sierpinski:9", "level above cap")],
    )
    def test_bad_generator_level_exit_2(self, capsys, spec, message):
        code, _, stderr = run_cli(["dim", "--gen", spec, "--trials", "5"], capsys)
        assert code == 2
        assert f"error: {message}" in stderr

    def test_csv_naming_a_directory_exit_2(self, karate_file, tmp_path, capsys):
        # its parent exists, but the path is itself a directory
        args = ["dim", "--input", str(karate_file), "--method", "hop", "--trials", "5",
                "--csv", str(tmp_path), "--json", str(tmp_path / "s.json")]
        code, _, stderr = run_cli(args, capsys)
        assert code == 2
        assert f"error: cannot write {tmp_path}: " in stderr

    def test_json_naming_a_directory_writes_nothing(self, karate_file, tmp_path, capsys):
        # refused before the input is read, so the CSV is never written
        (tmp_path / "out").mkdir()
        args = ["dim", "--input", str(karate_file), "--method", "hop", "--trials", "5",
                "--csv", str(tmp_path / "s.csv"), "--json", str(tmp_path / "out")]
        code, _, stderr = run_cli(args, capsys)
        assert code == 2
        assert f"error: cannot write {tmp_path / 'out'}: " in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["karate.txt", "out"]

    def test_refused_write_keeps_the_existing_file(self, karate_file, tmp_path, capsys, monkeypatch):
        # the dump was written by this run, so it goes; the CSV's own open was
        # refused, so the file already at that path is left as it was
        csv = tmp_path / "s.csv"
        csv.write_text("kept\n")
        fail_writes(monkeypatch, csv, PermissionError(13, "Permission denied", str(csv)))
        args = ["dim", "--input", str(karate_file), "--method", "hop", "--trials", "5",
                "--csv", str(csv), "--json", str(tmp_path / "s.json"),
                "--dump-matrix", str(tmp_path / "m.csv")]
        code, _, stderr = run_cli(args, capsys)
        assert code == 2
        assert f"error: cannot write {csv}: " in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["karate.txt", "s.csv"]
        assert csv.read_text() == "kept\n"

    @pytest.mark.parametrize("output", ["s.csv", "s.json"])
    def test_full_disk_removes_every_output(self, karate_file, tmp_path, capsys, monkeypatch, output):
        # the disk fills partway through one output: neither it nor the
        # outputs written before it are left
        monkeypatch.chdir(tmp_path)
        fail_writes(monkeypatch, output, no_space(), room=4)
        args = ["dim", "--input", str(karate_file), "--method", "hop", "--trials", "5",
                "--threads", "1", "--csv", "s.csv", "--json", "s.json", "--dump-matrix", "m.csv"]
        code, _, stderr = run_cli(args, capsys)
        assert code == 2
        assert f"error: cannot write {output}: [Errno 28] " in stderr
        assert [p.name for p in tmp_path.iterdir()] == ["karate.txt"]

    def test_byte_identical_csv_across_runs_and_threads(self, karate_file, tmp_path, capsys):
        blobs = []
        for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
            csv = tmp_path / f"{tag}.csv"
            code, _, _ = run_cli(
                [
                    "dim", "--input", str(karate_file), "--method", "repulsion",
                    "--trials", "60", "--seed", "11",
                    "--csv", str(csv), "--json", str(tmp_path / f"{tag}.json"),
                    "--threads", threads,
                ],
                capsys,
            )
            assert code == 0
            blobs.append(csv.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("method", ["hop", "repulsion"])
    def test_byte_identical_outputs_across_all_pairs_slices(self, tmp_path, capsys, monkeypatch, method):
        # every graph forks its all-pairs here: one slice and two give the
        # same CSV and the same --dump-matrix bytes
        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(metrics, "_FORK_NODES", 1)
        blobs = []
        for threads in ("1", "2"):
            out = [tmp_path / f"{threads}.csv", tmp_path / f"{threads}.matrix.csv"]
            code, _, _ = run_cli(
                [
                    "dim", "--gen", "sierpinski:2", "--method", method, "--trials", "20",
                    "--csv", str(out[0]), "--json", str(tmp_path / f"{threads}.json"),
                    "--threads", threads, "--dump-matrix", str(out[1]),
                ],
                capsys,
            )
            assert code == 0
            blobs.append([path.read_bytes() for path in out])
        assert blobs[0] == blobs[1]

    def test_dump_matrix(self, karate_file, tmp_path, capsys, monkeypatch):
        matrices = track_calls(monkeypatch, metrics, "all_pairs")
        components = track_calls(monkeypatch, graphs, "largest_component")
        dump = tmp_path / "matrix.csv"
        code, _, _ = run_cli(
            [
                "dim", "--input", str(karate_file), "--method", "hop",
                "--trials", "5", "--csv", str(tmp_path / "s.csv"),
                "--json", str(tmp_path / "s.json"), "--threads", "1",
                "--dump-matrix", str(dump),
            ],
            capsys,
        )
        assert code == 0
        # the dump is the matrix the analysis used, not a second all-pairs pass
        assert matrices == [0]
        assert len(components) == 1
        rows = dump.read_text().strip().splitlines()
        assert len(rows) == 34
        first = [int(x) for x in rows[0].split(",")]
        assert len(first) == 34
        assert first[0] == 0
        monkeypatch.undo()
        comp = bd.largest_component(bd.read_edge_list(karate_file))
        assert dump.read_bytes() == matrix_rows(bd.all_pairs(comp, bd.HOP))

    @pytest.mark.parametrize("method, dtype", [("hop", np.uint8), ("repulsion", np.int16)])
    def test_dump_matrix_matches_floyd_warshall(self, karate_file, tmp_path, capsys, method, dtype):
        # the narrow matrix is written as the exact distances, in the bytes
        # of an int64 matrix written with %d
        dump = tmp_path / "matrix.csv"
        code, _, _ = run_cli(
            [
                "dim", "--input", str(karate_file), "--method", method,
                "--trials", "3", "--csv", str(tmp_path / "s.csv"),
                "--json", str(tmp_path / "s.json"), "--threads", "1",
                "--dump-matrix", str(dump),
            ],
            capsys,
        )
        assert code == 0
        comp = bd.largest_component(bd.read_edge_list(karate_file))
        assert bd.all_pairs(comp, method).dist.dtype == dtype
        oracle = floyd_warshall(comp.node_count, graph_weighted_edges(comp, method))
        expected = io.BytesIO()
        np.savetxt(expected, np.array(oracle, dtype=np.int64), fmt="%d", delimiter=",")
        assert dump.read_bytes() == expected.getvalue()

    def test_fit_range_respected(self, karate_file, tmp_path, capsys):
        js = tmp_path / "s.json"
        code, _, _ = run_cli(
            [
                "dim", "--input", str(karate_file), "--method", "hop",
                "--trials", "20", "--fit-range", "1", "3",
                "--csv", str(tmp_path / "s.csv"), "--json", str(js), "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(js.read_text())["methods"]["hop"]["points_used"] == 3

    @pytest.mark.parametrize("flag", ["-q", "-v"])
    def test_log_level_flags_under_a_configured_root(self, karate, tmp_path, capsys, caplog, flag):
        # the root logger already has a handler here (caplog's), as in a host
        # program, so logging.basicConfig sets no level
        path = tmp_path / "split.txt"
        bd.save_edge_list(karate, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("island_a island_b\n")
        package = logging.getLogger("boxdim")
        before = package.level
        try:
            code, _, _ = run_cli(
                [flag, "dim", "--input", str(path), "--trials", "5", "--threads", "1",
                 "--csv", str(tmp_path / "out.csv"), "--json", str(tmp_path / "out.json")],
                capsys,
            )
        finally:
            package.setLevel(before)
        assert code == 0
        warned = any("disconnected" in r.getMessage() for r in caplog.records)
        debugged = any(r.name == "boxdim.metrics" and r.levelno == logging.DEBUG for r in caplog.records)
        assert (warned, debugged) == ((False, False) if flag == "-q" else (True, True))


class TestCompare:
    def test_karate_two_rows(self, karate_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run_cli(
            ["compare", "--input", str(karate_file), "--trials", "100", "--seed", "42", "--threads", "2"],
            capsys,
        )
        assert code == 0
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        assert lines[0].split()[:2] == ["method", "D_F"]
        table = {ln.split()[0]: float(ln.split()[1]) for ln in lines[1:3]}
        assert set(table) == {"repulsion", "hop"}
        assert table["repulsion"] < table["hop"]
        assert (tmp_path / "karate.repulsion.csv").exists()
        assert (tmp_path / "karate.hop.csv").exists()

    def test_disconnected_input_warned_once(self, karate, tmp_path, capsys, caplog, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "split.txt"
        bd.save_edge_list(karate, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("island_a island_b\n")
        with caplog.at_level(logging.WARNING, logger="boxdim.graphs"):
            code, _, _ = run_cli(
                [
                    "compare", "--input", str(path), "--trials", "5", "--threads", "1",
                    "--dump-matrix", str(tmp_path / "matrix.csv"),
                ],
                capsys,
            )
        assert code == 0
        warnings = [r for r in caplog.records if "disconnected" in r.getMessage()]
        assert len(warnings) == 1
        assert "discarding 2" in warnings[0].getMessage()

    @pytest.mark.parametrize("dump", [False, True])
    def test_one_matrix_per_method(self, karate_file, tmp_path, capsys, monkeypatch, dump):
        monkeypatch.chdir(tmp_path)
        matrices = track_calls(monkeypatch, metrics, "all_pairs")
        components = track_calls(monkeypatch, graphs, "largest_component")
        path = tmp_path / "matrix.csv"
        args = ["compare", "--input", str(karate_file), "--trials", "5", "--threads", "1"]
        code, _, _ = run_cli(args + (["--dump-matrix", str(path)] if dump else []), capsys)
        assert code == 0
        # repulsion, then hop, and the repulsion matrix is released before hop is built
        assert matrices == [0, 0]
        assert len(components) == 1
        assert path.exists() == dump
        if dump:
            monkeypatch.undo()
            comp = bd.largest_component(bd.read_edge_list(karate_file))
            expected = bd.all_pairs(bd.edge_repulsive_force(comp), bd.REPULSION)
            assert path.read_bytes() == matrix_rows(expected)

    def test_each_trial_order_drawn_once(self, karate_file, tmp_path, capsys, monkeypatch):
        # both methods color the same trials of one graph, so the second
        # reads the orders the first drew, in one block of trials or in
        # several (16, 16 and 8)
        monkeypatch.chdir(tmp_path)
        drawn = []
        order = covering._order

        def counted(n, master_seed, trial):
            drawn.append(trial)
            return order(n, master_seed, trial)

        monkeypatch.setattr(covering, "_order", counted)
        args = ["compare", "--input", str(karate_file), "--trials", "40", "--threads", "1"]
        for block in (covering._TRIAL_BLOCK, 16):
            monkeypatch.setattr(covering, "_TRIAL_BLOCK", block)
            covering._run_orders.cache_clear()
            drawn.clear()
            code, _, _ = run_cli(args, capsys)
            assert code == 0
            assert drawn == list(range(40)), block

    def test_degenerate_second_method_leaves_only_the_input(self, tmp_path, capsys, monkeypatch):
        # hop diameter 2, so the hop sweep has two sizes; by then the
        # repulsion CSV and the dump were written, and both are removed
        monkeypatch.chdir(tmp_path)
        Path("star.txt").write_text("0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n3 4\n")
        args = ["compare", "--input", "star.txt", "--trials", "5", "--dump-matrix", "m.csv"]
        code, _, stderr = run_cli(args, capsys)
        assert code == 3
        assert "degenerate scaling range: only 2 box size(s)" in stderr
        assert [p.name for p in tmp_path.iterdir()] == ["star.txt"]

    @pytest.mark.parametrize(
        "command",
        [
            # the dump would overwrite the input, which the failed hop sweep would then remove
            "compare --input star.txt --trials 5 --dump-matrix star.txt",
            # a successful run would write its CSV over its input
            "dim --input star.txt --method hop --trials 5 --csv star.txt",
            # a default path counts: compare's hop CSV is star.hop.csv
            "compare --input star.txt --trials 5 --json star.hop.csv",
            # two outputs, one file
            "dim --input star.txt --trials 5 --dump-matrix m.csv --json ./m.csv",
            # a hard link is the input under another name
            "dim --input star.txt --trials 5 --csv link.txt",
        ],
    )
    def test_output_on_the_input_or_another_output_exit_2(
        self, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        star = "0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n3 4\n"
        Path("star.txt").write_text(star)
        if "link.txt" in command:
            os.link("star.txt", "link.txt")
        names = sorted(p.name for p in tmp_path.iterdir())
        loads = []
        monkeypatch.setattr(cli, "_load_input", loads.append)
        code, _, stderr = run_cli(command.split(), capsys)
        assert code == 2
        assert "is the input or another output of this run" in stderr
        assert loads == []
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert Path("star.txt").read_text() == star

    def test_symbolic_link_output_writes_and_removes_the_file_it_names(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        Path("star.txt").write_text("0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n3 4\n")
        os.symlink("target.csv", "link.csv")
        # the star's hop sweep fails after the dump went through the link
        args = ["compare", "--input", "star.txt", "--trials", "5", "--dump-matrix", "link.csv"]
        code, _, stderr = run_cli(args, capsys)
        assert code == 3
        assert "degenerate scaling range: only 2 box size(s)" in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "star.txt"]
        assert Path("link.csv").is_symlink()
        # a run that passes writes the file the link names and leaves the link
        for csv in ("link.csv", "direct.csv"):
            args = ["dim", "--input", "star.txt", "--trials", "5", "--csv", csv, "--json", "s.json"]
            assert run_cli(args, capsys)[0] == 0
        assert Path("link.csv").is_symlink()
        assert Path("target.csv").read_bytes() == Path("direct.csv").read_bytes()

    def test_failed_run_never_removes_a_device(self, tmp_path, capsys, monkeypatch):
        # the star's hop sweep fails after the dump went to the null device:
        # its repulsion CSV is removed, the device is not even tried
        monkeypatch.chdir(tmp_path)
        Path("star.txt").write_text("0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n3 4\n")
        unlink = Path.unlink

        def guarded(self, *args, **kwargs):
            if os.path.realpath(self) == os.path.realpath(os.devnull):
                raise AssertionError(f"a failed run removed {self}")
            return unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", guarded)
        args = ["compare", "--input", "star.txt", "--trials", "5", "--dump-matrix", os.devnull]
        code, _, stderr = run_cli(args, capsys)
        assert code == 3
        assert "degenerate scaling range: only 2 box size(s)" in stderr
        assert [p.name for p in tmp_path.iterdir()] == ["star.txt"]

    def test_interrupt_on_second_method_removes_first_methods_files(
        self, karate_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        seen = []
        counts = dimension.covering_counts

        def interrupted(*args, **kwargs):
            seen.append(sorted(p.name for p in tmp_path.iterdir()))
            if len(seen) == 2:
                raise KeyboardInterrupt
            return counts(*args, **kwargs)

        monkeypatch.setattr(dimension, "covering_counts", interrupted)
        args = ["compare", "--input", str(karate_file), "--trials", "5", "--threads", "1",
                "--dump-matrix", "m.csv"]
        code, _, stderr = run_cli(args, capsys)
        assert code == 130 and stderr == "interrupted\n"
        assert seen[1] == ["karate.repulsion.csv", "karate.txt", "m.csv"]
        assert [p.name for p in tmp_path.iterdir()] == ["karate.txt"]

    def test_interrupt_exits_130_with_one_line(self, karate_file, tmp_path, capsys, monkeypatch):
        # Ctrl-C while the CSV is written, after the matrix dump: exit 130,
        # one line on stderr, no traceback and no outputs left
        monkeypatch.chdir(tmp_path)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "write_series_csv", interrupted)
        args = ["dim", "--input", str(karate_file), "--trials", "5", "--dump-matrix", "m.csv"]
        code, stdout, stderr = run_cli(args, capsys)
        assert (code, stdout, stderr) == (130, "", "interrupted\n")
        assert [p.name for p in tmp_path.iterdir()] == ["karate.txt"]

    def test_interrupt_inside_the_dump_removes_it(self, karate_file, tmp_path, capsys, monkeypatch):
        # Ctrl-C after the dump's first row is on disk
        monkeypatch.chdir(tmp_path)
        savetxt = np.savetxt
        written = []

        def interrupted(fh, matrix, **kwargs):
            savetxt(fh, matrix[:1], **kwargs)
            fh.flush()
            written.append(Path("m.csv").stat().st_size)
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savetxt", interrupted)
        args = ["dim", "--input", str(karate_file), "--trials", "5", "--threads", "1",
                "--dump-matrix", "m.csv"]
        code, stdout, stderr = run_cli(args, capsys)
        assert (code, stdout, stderr) == (130, "", "interrupted\n")
        assert written[0] > 0
        assert [p.name for p in tmp_path.iterdir()] == ["karate.txt"]

    def test_missing_input_exit_2(self, capsys):
        code, _, stderr = run_cli(["compare", "--input", "/no/such/file.txt"], capsys)
        assert code == 2
        assert "/no/such/file.txt" in stderr


class TestDefaultThreads:
    # the CLI runs usable_workers(8) when --threads is not given
    def test_counts_usable_cpus_not_machine_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        assert usable_workers(8) == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_workers(8) == 5

    def test_threads_clamped_to_usable_cpus(self, tmp_path, capsys, monkeypatch):
        # Sierpinski 2 fits one word, so no process starts whatever the count
        set_usable_cpus(monkeypatch, 2)
        for threads in ([], ["--threads", "500"]):
            js = tmp_path / "s.json"
            code, _, _ = run_cli(
                [
                    "dim", "--gen", "sierpinski:2", "--method", "hop", "--trials", "5",
                    "--csv", str(tmp_path / "s.csv"), "--json", str(js), *threads,
                ],
                capsys,
            )
            assert code == 0
            assert json.loads(js.read_text())["config"]["threads"] == 2


def test_write_read_series_csv_round_trip(tmp_path, karate):
    dm = bd.all_pairs(karate, bd.HOP)
    sizes = (1, 2, 3, 4, 5)
    counts = bd.covering_counts(dm, sizes, trials=9, master_seed=1)
    from boxdim.dimension import series_from_counts

    series = series_from_counts(dm, sizes, counts, 34, 78)
    path = tmp_path / "series.csv"
    write_series_csv(series, path)
    back_sizes, back_means = read_series_csv(path)
    assert back_sizes == list(sizes)
    assert back_means == counts.mean(axis=1).tolist()


def test_runtime_imports_neither_scipy_nor_numba():
    # either import would add its load time and memory to every CLI run; the
    # disconnected input also takes the component extraction path
    script = (
        "import sys\n"
        "import boxdim, boxdim.cli\n"
        "boxdim.analyze(boxdim.karate_club(), trials=2)\n"
        "g = boxdim.largest_component(boxdim.load_edge_list('1 2\\n2 3\\n3 1\\nx y\\n'))\n"
        "assert g.node_count == 3\n"
        "boxdim.edge_repulsive_force(g)\n"
        "print(sorted(m for m in ('scipy', 'numba') if m in sys.modules))\n"
    )
    src = str(Path(bd.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("args", [
    "dim --gen sierpinski:3 --method hop",
    # 215 distinct distances, so the schedule is log-snapped
    "dim --gen sierpinski:3 --method repulsion",
    "compare --gen sierpinski:2",
], ids=["dim hop", "dim repulsion", "compare"])
def test_no_run_imports_numpy_ma(tmp_path, args):
    # numpy.ma takes some 5 ms to import, and np.unique's first call imports it
    script = (
        "import sys\n"
        "from boxdim.cli import main\n"
        f"code = main(['-q', *{args.split()!r}, '--trials', '3', '--threads', '1'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(bd.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.split()[-2:] == ["0", "False"]
