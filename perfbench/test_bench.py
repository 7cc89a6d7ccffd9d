"""Tests of the benchmark itself, on the 6-node worked example; they take seconds.

Run from the root of the checkout: python3 -m pytest perfbench
"""
import dataclasses
import json
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = run.WORKLOADS["tiny"]
SEED = 3


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, kind):
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", "tiny",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_wrong_reference_digest_counts_as_failed():
    recorded = {TINY.name: {str(SEED): {m: "0" * 64 for m in TINY.methods}}}
    result = run.timed_run(TINY, SEED, 1.0, recorded)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert all("differs from the recorded reference" in e for e in result["samples"]["errors"])


def test_nonzero_cli_exit_counts_as_failed():
    result = run.timed_run(dataclasses.replace(TINY, trials=0), SEED, 1.0, {})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert all(e == "exit code 2" for e in result["samples"]["errors"])


def test_reference_oracles_on_worked_example():
    n, u, v = run.parse_edges(run.WORKED_EXAMPLE.splitlines())
    dist = run.reference_distances(n, u, v, "repulsion")
    # degree-product forces 1-2: 4, 1-3: 6, 3-4: 6, 4-5: 4, 5-6: 2
    assert dist[0].tolist() == [0, 4, 6, 12, 16, 18]
    # every pair conflicts below the smallest distance; none above the diameter
    assert run.dense_rule_counts(dist, [1, 19], seed=0, trial=0) == [6, 1]
