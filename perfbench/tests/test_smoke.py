"""Tiny-size self-test of the benchmark harness; asserts outputs and
metric names, never timings. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(workload, trace, tmp_path):
    result, info = run.measure(
        workload, seed=3, seconds=0.0, trace=trace,
        sizes=workloads.TINY_SIZES[workload], workdir=tmp_path / "w", import_s=0.0,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert info["gates"] and all(info["gates"].values())
    assert info["env"]["nproc"] >= 1
    if trace:
        assert set(info["layers"]) == set(want)
        assert result["metrics"]["engine.valuation_checks"]["value"] > 0
        assert result["metrics"]["engine.candidate_clauses"]["value"] > 0


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers.EXPECTED)


def test_gate_catches_a_wrong_prediction(tmp_path):
    w = workloads.Transfer(5, workloads.TINY_SIZES["transfer"], tmp_path, workloads.Obs())
    corpus, chunk = w.inputs(0, workloads.Obs())[0]
    _, _, pred_text, samples_path, _ = corpus.run_chunk(chunk, workloads.Obs())
    check = workloads.PredictionCheck(workloads.PROGRAM_PATH.read_text())
    check.add(samples_path.read_text(), pred_text)
    assert all(check.gates()[0].values())
    wrong = pred_text.replace('"acts": [', '"acts": [["inform", "x"], ', 1)
    check.add(samples_path.read_text(), wrong)
    assert not all(check.gates()[0].values())


def test_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot_train",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
