"""The benchmark's own tests, at smoke sizes (a few seconds per run).

    python3 -m pytest perfbench

They check that every metric is printed with its unit, that the correctness
gate passes, that ``BENCHMARK.json`` names exactly the metrics ``metrics.py``
defines, that the output checks catch a tampered file, and that a checkout
without the program makes the benchmark fail without printing a result.
"""
from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import records  # noqa: E402
from metrics import DETAIL, END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_and_gate_passes(workload, trace):
    detail, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failures"] == [] and detail["metrics"]["failed_frac"]["value"] == 0
    expected = PER_LAYER if trace else END_TO_END
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {name: spec[0] for name, spec in expected.items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_detail_names_every_issue_metric():
    units = {}
    for workload in WORKLOADS:
        detail, _ = bench(workload, 0)
        units.update({name: m["unit"] for name, m in detail["metrics"].items()})
    assert units == {name: spec[0] for name, spec in {**END_TO_END, **DETAIL}.items()}


def test_traced_pass_fills_each_workloads_layers():
    fired = set()
    for workload in WORKLOADS:
        _, result = bench(workload, 1)
        fired |= {name for name, m in result["metrics"].items() if m["value"]}
    assert fired >= set(PER_LAYER) - {"trace.overhead_s"}


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[0] for k, v in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in PER_LAYER.items()
    }


def test_checks_catch_a_tampered_file(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    from ietrewind.cli import main

    monkeypatch.chdir(tmp_path)
    start = {"alphabet": [1, 2, 3, 4, 5], "p0": [1, 2, 3, 4, 5], "p1": [5, 4, 3, 2, 1]}
    types = [1, 1, 0, 1, 0, 0, 0, 1]
    (tmp_path / "start.json").write_text(json.dumps(start))
    grouping = records.type_runs(types)
    assert main(["simulate", "--start", "start.json", "--script", records.script(types, grouping),
                 "--out", "path.json"]) == 0
    obj = json.loads((tmp_path / "path.json").read_text())
    records.check_pair_file(obj, start, types, grouped=True)
    obj["matrices"][0][0][0] = 2
    with pytest.raises(records.CheckFailed):
        records.check_pair_file(obj, start, types, grouped=True)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "pair-zorich", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
