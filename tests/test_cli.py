import json
import logging
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import boxdim as bd
from boxdim import cli, dimension, graphs, metrics
from boxdim.cli import main, read_series_csv, write_series_csv

from conftest import die_on_trial, time_limit


def run_cli(args, capsys):
    code = main(args)
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

    def test_bad_trials_exit_2(self, karate_file, capsys):
        code, _, stderr = run_cli(
            ["dim", "--input", str(karate_file), "--trials", "0"], capsys
        )
        assert code == 2
        assert "--trials" in stderr

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--threads", "0"),
            ("--threads", "-3"),
            ("--max-points", "2"),
            ("--fit-range", "5 2"),
            ("--fit-range", "nan 3"),
            ("--fit-range", "1 inf"),
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

    def test_generated_input(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run_cli(
            ["dim", "--gen", "sierpinski:2", "--method", "hop", "--trials", "20", "--threads", "1"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "sierpinski2.hop.csv").exists()

    def test_bad_generator_spec(self, capsys):
        code, _, stderr = run_cli(["dim", "--gen", "menger:2", "--trials", "5"], capsys)
        assert code == 2
        assert "menger" in stderr

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

    def test_missing_input_exit_2(self, capsys):
        code, _, stderr = run_cli(["compare", "--input", "/no/such/file.txt"], capsys)
        assert code == 2
        assert "/no/such/file.txt" in stderr


class TestDefaultThreads:
    def test_counts_usable_cpus_not_machine_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        assert cli._default_threads() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli._default_threads() == 5


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
    assert back_means == [s.mean for s in series.stats]


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
