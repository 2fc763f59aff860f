"""End-to-end runs of the command line tool."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_CLI = [sys.executable, "-m", "ietrewind.cli"]
_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_PAIR_START = {"alphabet": [1, 2, 3, 4, 5], "p0": [1, 2, 3, 4, 5], "p1": [5, 4, 3, 2, 1]}
_PERM_START = {"n": 5, "image": [5, 2, 1, 4, 3]}


def _run(*argv, stdin_text=None):
    return subprocess.run(
        _CLI + list(argv), capture_output=True, text=True, input=stdin_text
    )


def _json_out(proc):
    return json.loads(proc.stdout)


@pytest.fixture()
def pair_start_file(tmp_path):
    p = tmp_path / "start.json"
    p.write_text(json.dumps(_PAIR_START))
    return str(p)


@pytest.fixture()
def perm_start_file(tmp_path):
    p = tmp_path / "perm.json"
    p.write_text(json.dumps(_PERM_START))
    return str(p)


def test_console_script_is_installed():
    # The entry point is checked from pyproject.toml, so no install is needed;
    # an installed iet-rewind on PATH must behave the same.
    tomllib = pytest.importorskip("tomllib")
    with open(_PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("iet-rewind") == "ietrewind.cli:main"
    # the same call pip's generated wrapper makes
    wrapper = "import sys; from ietrewind.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    for command in ("simulate", "recover", "verify", "sharpness"):
        assert command in proc.stdout
    exe = shutil.which("iet-rewind")
    if exe:
        installed = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert installed.returncode == 0
        assert installed.stdout == proc.stdout


def test_simulate_script_unit_moves(pair_start_file):
    proc = _run("simulate", "--start", pair_start_file, "--script", "1x6")
    assert proc.returncode == 0, proc.stderr
    out = _json_out(proc)
    assert out["version"] == 1 and out["flavor"] == "pair"
    assert [m["winner"] for m in out["moves"]] == [1] * 6
    assert [m["losers"] for m in out["moves"]] == [[5], [4], [3], [2], [5], [4]]
    assert [m["type"] for m in out["moves"]] == [1] * 6
    assert len(out["matrices"]) == 6
    # the whole product in one block puts every multiplicity in the winner row
    proc = _run("simulate", "--start", pair_start_file, "--script", "1x6,group(6)")
    whole = _json_out(proc)
    assert whole["matrices"][0][0] == [1, 1, 1, 2, 2]
    assert whole["moves"][0]["power"] == 6


def test_simulate_script_split_grouping(pair_start_file):
    proc = _run("simulate", "--start", pair_start_file, "--script", "1x6,group(4,2)")
    assert proc.returncode == 0
    out = _json_out(proc)
    assert out["grouping"] == [4, 2]
    assert [m["power"] for m in out["moves"]] == [4, 2]
    assert out["matrices"][0][0] == [1, 1, 1, 1, 1]
    assert out["matrices"][1][0] == [1, 0, 0, 1, 1]


def test_simulate_seed_is_deterministic(pair_start_file):
    a = _run("simulate", "--start", pair_start_file, "--seed", "7", "--length", "20")
    b = _run("simulate", "--start", pair_start_file, "--seed", "7", "--length", "20")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = _run("simulate", "--start", pair_start_file, "--seed", "8", "--length", "20")
    assert c.stdout != a.stdout


def test_recover_pair_partition(tmp_path, pair_start_file):
    path_file = tmp_path / "path.json"
    proc = _run(
        "simulate", "--start", pair_start_file, "--script", "1x6", "--out", str(path_file)
    )
    assert proc.returncode == 0
    proc = _run("recover", str(path_file))
    assert proc.returncode == 0
    out = _json_out(proc)
    # elementary moves pin every loser position; only row 0 keeps a block
    assert out["Q0"] == [[2, 3, 4, 5], [1]]
    assert out["Q1"] == [[1], [2], [3], [4], [5]]
    assert out["unique"] is False
    assert out["count"] == 48
    proc = _run("recover", str(path_file), "--trace")
    trace = _json_out(proc)["trace"]
    assert len(trace) == 6
    assert trace[-1] == {"Q0": out["Q0"], "Q1": out["Q1"]}


def test_recover_reads_stdin(tmp_path, pair_start_file):
    proc = _run("simulate", "--start", pair_start_file, "--script", "1x6")
    piped = _run("recover", "-", stdin_text=proc.stdout)
    assert piped.returncode == 0
    assert _json_out(piped)["Q0"] == [[2, 3, 4, 5], [1]]


def test_recover_from_grouped_matrices(tmp_path, pair_start_file):
    path_file = tmp_path / "grouped.json"
    _run("simulate", "--start", pair_start_file, "--script", "1x6,group(4,2)", "--out", str(path_file))
    proc = _run("recover", str(path_file))
    assert proc.returncode == 0
    out = _json_out(proc)
    # cycle-level records place each loser set as one block
    assert out["Q0"] == [[2, 3, 4, 5], [1]]
    assert out["Q1"] == [[1], [2, 3], [4, 5]]
    assert out["count"] == 192

    # without matrices the records still read as clean cycles here
    data = json.loads(path_file.read_text())
    del data["matrices"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(data))
    proc = _run("recover", str(stripped))
    assert proc.returncode == 0
    assert _json_out(proc)["Q1"] == [[1], [2, 3], [4, 5]]


def test_recover_rejects_unexpandable_grouping(tmp_path, pair_start_file):
    path_file = tmp_path / "whole.json"
    _run("simulate", "--start", pair_start_file, "--script", "1x6,group(6)", "--out", str(path_file))
    data = json.loads(path_file.read_text())
    del data["matrices"]  # the block repeats losers, so moves alone are short
    stripped = tmp_path / "whole_stripped.json"
    stripped.write_text(json.dumps(data))
    proc = _run("recover", str(stripped))
    assert proc.returncode == 4
    assert "unpack" in _json_out(proc)["detail"]


def test_verify_pair_with_oracle(tmp_path, pair_start_file):
    path_file = tmp_path / "path.json"
    _run("simulate", "--start", pair_start_file, "--seed", "3", "--length", "9", "--out", str(path_file))
    proc = _run("verify", str(path_file), "--oracle")
    assert proc.returncode == 0, proc.stdout
    out = _json_out(proc)
    assert out["ok"] is True
    assert out["checks"]["start_agrees"] is True
    assert out["checks"]["types_agree"] is True
    assert out["checks"]["oracle_matches"] is True


def test_verify_flags_a_tampered_start(tmp_path, pair_start_file):
    path_file = tmp_path / "path.json"
    _run("simulate", "--start", pair_start_file, "--script", "1x6", "--out", str(path_file))
    data = json.loads(path_file.read_text())
    data["start"] = {"alphabet": [1, 2, 3, 4, 5], "p0": [2, 1, 3, 4, 5], "p1": [5, 4, 3, 1, 2]}
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    proc = _run("verify", str(tampered))
    assert proc.returncode == 3
    out = _json_out(proc)
    assert out["ok"] is False
    assert out["checks"]["start_agrees"] is False


def test_verify_perm_with_oracle(tmp_path, perm_start_file):
    path_file = tmp_path / "perm_path.json"
    proc = _run(
        "simulate",
        "--start", perm_start_file,
        "--script", "1,0,1,1,0,0,1,1,1,0,0,0,group(1,1,2,2,3,3)",
        "--out", str(path_file),
    )
    assert proc.returncode == 0, proc.stderr
    proc = _run("verify", str(path_file), "--oracle")
    assert proc.returncode == 0, proc.stdout
    out = _json_out(proc)
    assert out["checks"]["start_agrees"] is True
    assert out["checks"]["oracle_matches"] is True
    assert out["recovered"]["unique"] is True
    assert out["recovered"]["pi"] == [5, 2, 1, 4, 3]
    assert out["recovered"]["Q"] == [[3], [2], [5], [4], [1]]


def test_unrealizable_record_exits_two(tmp_path):
    bad = {
        "version": 1,
        "flavor": "pair",
        "alphabet": [1, 2, 3],
        "moves": [
            {"winner": 1, "losers": [3], "type": None},
            {"winner": 2, "losers": [3], "type": None},
        ],
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    proc = _run("recover", str(f))
    assert proc.returncode == 2
    out = _json_out(proc)
    assert out["error"] == "unrealizable"
    assert out["step"] == 1
    assert "winner not available" in out["reason"]


def test_bad_inputs_exit_four(tmp_path, pair_start_file):
    proc = _run("simulate", "--start", pair_start_file, "--script", "2x3")
    assert proc.returncode == 4
    assert "bad script token" in _json_out(proc)["detail"]

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    proc = _run("recover", str(garbage))
    assert proc.returncode == 4

    unversioned = tmp_path / "unversioned.json"
    unversioned.write_text(json.dumps({"flavor": "pair", "alphabet": [1, 2, 3]}))
    proc = _run("recover", str(unversioned))
    assert proc.returncode == 4
    assert "version" in _json_out(proc)["detail"]


def test_sharpness_output_and_roundtrip(tmp_path):
    a = _run("sharpness", "--n", "8")
    b = _run("sharpness", "--n", "8")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    out = _json_out(a)
    report = out["report"]
    assert report["stretches"] == 2
    assert report["unresolved"] == 2
    assert report["agreeing_count"] == 2
    assert len(report["alternatives"]) == 2
    assert report["alternatives_verified"] is True
    assert len(out["moves"]) == 44

    path_file = tmp_path / "sharp.json"
    path_file.write_text(a.stdout)
    proc = _run("recover", str(path_file))
    assert proc.returncode == 0
    rec = _json_out(proc)
    assert rec["unique"] is False
    assert rec["count"] == 4

    proc = _run("sharpness", "--n", "7")
    assert proc.returncode == 4


def test_verify_grouped_perm_record_with_oracle(tmp_path):
    start = tmp_path / "perm5.json"
    start.write_text(json.dumps({"n": 5, "image": [4, 5, 3, 1, 2]}))
    path_file = tmp_path / "grouped_perm.json"
    script = "0x5,1,0,1x2,0x3,group(5,1,1,2,3)"
    proc = _run("simulate", "--start", str(start), "--script", script, "--out", str(path_file))
    assert proc.returncode == 0, proc.stderr
    proc = _run("verify", str(path_file), "--oracle")
    assert proc.returncode == 0, proc.stdout
    out = _json_out(proc)
    assert out["checks"] == {"start_agrees": True, "oracle_matches": True}
    assert out["recovered"]["pi"] == [4, 5, 3, 1, 2]


def test_commands_decode_each_matrix_once_and_never_multiply(tmp_path, monkeypatch):
    from ietrewind import cli, lifting, matrices, rauzy, recovery

    def no_products(*args):
        raise AssertionError("a command multiplied matrices")

    for module in (cli, lifting, matrices, rauzy):
        monkeypatch.setattr(module, "matmul", no_products)
    calls = {"extract_move": 0, "decode_A": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "extract_move", counted("extract_move", cli.extract_move))
    monkeypatch.setattr(recovery, "decode_A", counted("decode_A", recovery.decode_A))

    def run(*argv, out=tmp_path / "out.json"):
        assert cli.main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    starts = {
        "pair": {"alphabet": [1, 2, 3, 4, 5], "p0": [1, 2, 3, 4, 5], "p1": [5, 3, 1, 4, 2]},
        "permutation": {"n": 5, "image": [5, 3, 1, 4, 2]},
    }
    script = "1x3,0x2,1,0x4,1x2,group(3,2,1,4,2)"
    for flavor, obj in starts.items():
        start = tmp_path / f"{flavor}.json"
        start.write_text(json.dumps(obj))
        run("simulate", "--start", str(start), "--seed", "4", "--until-c-complete", "2")
        for argv in (["--script", script], ["--seed", "4", "--length", "40"]):
            path_file = tmp_path / f"{flavor}-path.json"
            data = run("simulate", "--start", str(start), *argv, out=path_file)
            for command in (["recover", "--trace"], ["verify"], ["verify", "--oracle"]):
                calls.update(extract_move=0, decode_A=0)
                run(command[0], str(path_file), *command[1:])
                if flavor == "pair":
                    assert calls["extract_move"] == len(data["matrices"])
                else:
                    assert calls["decode_A"] == len(data["matrices"])
        # a permutation record without matrices is rebuilt and decoded once
        if flavor == "permutation":
            del data["matrices"]
            path_file.write_text(json.dumps(data))
            calls.update(decode_A=0)
            run("verify", str(path_file), "--oracle")
            assert calls["decode_A"] == len(data["moves"])
