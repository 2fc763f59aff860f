"""The experiment scripts under ``scripts/`` run to completion at small sizes,
and the benchmark's tracer still finds every name it wraps."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _load(path):
    spec = importlib.util.spec_from_file_location(f"loaded_{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("random_roundtrip", ["--trials", "30", "--max-n", "6"]),
        ("ambiguity_table", ["--max-n", "12"]),
        ("step_cost", ["--sizes", "8", "16", "--moves", "300"]),
    ],
)
def test_script_exits_zero(name, argv, capsys):
    assert _load(_ROOT / "scripts" / f"{name}.py").main(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[0] == "n"


def test_phase_cost_times_each_phase_of_recover(capsys, tmp_path):
    from ietrewind import cli

    path = tmp_path / "sharp.json"
    assert cli.main(["sharpness", "--n", "16", "--out", str(path)]) == 0
    assert _load(_ROOT / "scripts" / "phase_cost.py").main([str(path), str(path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["read_json_s", "load_path_file_s", "recover_report_s", "emit_s", "path"]
    assert len(rows) == 2
    for row in rows:
        *times, name = row.split()
        assert name == str(path) and len(times) == 4 and all(float(t) > 0 for t in times)


def test_ab_cli_runs_one_command_from_both_trees(capsys, tmp_path):
    src = str(_ROOT / "src")
    ab = _load(_ROOT / "scripts" / "ab_cli.py")
    assert ab.main([src, src, "--rounds", "2", "--", "sharpness", "--n", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sides = {line.split()[0]: line.split() for line in lines[1:3]}
    assert set(sides) == {"A", "B"}
    for fields in sides.values():
        assert float(fields[1]) > 0 and float(fields[-4]) > 0  # a wall time and a peak RSS
    assert lines[-1].startswith("B/A cpu_s median ratio")
    # a tree whose command exits 0 with other bytes stops the comparison at once
    other = tmp_path / "ietrewind"
    other.mkdir()
    (other / "__init__.py").write_text("")
    (other / "cli.py").write_text("print('{}')\n")
    with pytest.raises(SystemExit, match="^round 1: the outputs of A and B differ$"):
        ab.main([src, str(tmp_path), "--rounds", "2", "--", "sharpness", "--n", "8"])


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/trace_child.py replaces these attributes to time the CLI's layers
    tracer = _load(_ROOT / "perfbench" / "trace_child.py")
    wrapped = [(module, attr) for module, attr, *_ in tracer.SPANS + tracer.COUNTERS]
    assert wrapped
    for module, attr in wrapped:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
