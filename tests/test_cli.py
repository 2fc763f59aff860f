"""End-to-end runs of the command line tool."""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
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
    # ungrouped single moves pin every loser position; only row 0 keeps a block
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


def test_verify_oracle_past_the_brute_force_cap(tmp_path):
    # eight symbols: the brute-force pair oracle stops at six
    start = tmp_path / "start8.json"
    start.write_text(json.dumps({"alphabet": list(range(1, 9)), "p0": list(range(1, 9)), "p1": [8, 3, 6, 1, 7, 5, 2, 4]}))
    path_file = tmp_path / "path8.json"
    proc = _run("simulate", "--start", str(start), "--seed", "1", "--until-c-complete", "2", "--out", str(path_file))
    assert proc.returncode == 0, proc.stderr
    proc = _run("verify", str(path_file), "--oracle")
    assert proc.returncode == 0, proc.stdout
    out = _json_out(proc)
    assert out["checks"] == {"start_agrees": True, "types_agree": True, "oracle_matches": True}
    assert out["recovered"]["count"] == 2


def test_ten_symbol_walk_counts_and_verifies_with_the_oracle(tmp_path):
    # no size limit stands between a settled record and its count or its oracle
    start = tmp_path / "start10.json"
    start.write_text(json.dumps({"alphabet": list(range(1, 11)), "p0": list(range(1, 11)), "p1": [10, 3, 6, 1, 9, 7, 5, 2, 8, 4]}))
    path_file = tmp_path / "path10.json"
    proc = _run("simulate", "--start", str(start), "--seed", "2", "--until-c-complete", "3", "--out", str(path_file))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(path_file.read_text())["moves"]) == 187
    proc = _run("recover", str(path_file))
    assert proc.returncode == 0, proc.stdout
    out = _json_out(proc)
    assert (out["count"], out["unique"]) == (2, True)
    proc = _run("verify", str(path_file), "--oracle")
    assert proc.returncode == 0, proc.stdout
    assert _json_out(proc)["checks"] == {"start_agrees": True, "types_agree": True, "oracle_matches": True}


def test_verify_oracle_over_its_bound_exits_four_quickly(tmp_path):
    # A first block of ten losers leaves their order open until later moves
    # fix it: the forward oracle would branch 10! ways, while recovery
    # narrows the record to 48 starts.
    start = tmp_path / "start12.json"
    start.write_text(json.dumps({"alphabet": list(range(1, 13)), "p0": list(range(1, 13)), "p1": list(range(12, 0, -1))}))
    rng = random.Random(7)
    types = [rng.randint(0, 1) for _ in range(120)]
    script = "0x10," + ",".join(map(str, types)) + ",group(10," + ",".join("1" * len(types)) + ")"
    path_file = tmp_path / "path12.json"
    proc = _run("simulate", "--start", str(start), "--script", script, "--out", str(path_file))
    assert proc.returncode == 0, proc.stderr
    proc = _run("recover", str(path_file))
    assert _json_out(proc)["count"] == 48
    begin = time.monotonic()
    proc = _run("verify", str(path_file), "--oracle")
    assert time.monotonic() - begin < 10
    assert proc.returncode == 4, proc.stdout
    assert _json_out(proc) == {"error": "bad input", "detail": "the forward oracle's branches are over its bound"}


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

    # a grouped file names the failing file entry, not a count of unit moves
    start = tmp_path / "start4.json"
    start.write_text(json.dumps({"alphabet": [1, 2, 3, 4], "p0": [1, 2, 3, 4], "p1": [4, 3, 2, 1]}))
    grouped = tmp_path / "grouped.json"
    script = "1x5,0,1x2,0x2,group(5,1,2,2)"
    assert _run("simulate", "--start", str(start), "--script", script, "--out", str(grouped)).returncode == 0
    data = json.loads(grouped.read_text())
    del data["moves"]
    # entry 1 bundles two unit moves of the rewind; entry 2 now claims winner 2 over loser 3
    data["matrices"][1] = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    grouped.write_text(json.dumps(data))
    proc = _run("recover", str(grouped))
    assert proc.returncode == 2
    assert _json_out(proc)["step"] == 2


def test_bad_inputs_exit_four(tmp_path, pair_start_file):
    for script in ("2x3", "1x", "1x1_0", "1x+2", "1x 3"):
        proc = _run("simulate", "--start", pair_start_file, "--script", script)
        assert proc.returncode == 4, script
        assert "bad script token" in _json_out(proc)["detail"]
    for script in ("1x10,group(1_0)", "1x3,group(+3)", "1x3,group(1,0,2)", "1x2,group()"):
        proc = _run("simulate", "--start", pair_start_file, "--script", script)
        assert proc.returncode == 4, script
        assert "bad group token" in _json_out(proc)["detail"]
    # each once wrote a file: --length one with no moves, --until-c-complete one with one move
    for option in ("--length", "--until-c-complete"):
        for value in ("0", "-3"):
            proc = _run("simulate", "--start", pair_start_file, "--seed", "1", option, value)
            assert proc.returncode == 4, (option, value)
            assert f"{option} must be at least 1" in _json_out(proc)["detail"]

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    proc = _run("recover", str(garbage))
    assert proc.returncode == 4

    unversioned = tmp_path / "unversioned.json"
    unversioned.write_text(json.dumps({"flavor": "pair", "alphabet": [1, 2, 3]}))
    proc = _run("recover", str(unversioned))
    assert proc.returncode == 4
    assert "version" in _json_out(proc)["detail"]


_PAIR_MATRIX_4 = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
_TYPE1_4 = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0]]  # type-1 at k=2, n=4


@pytest.mark.parametrize(
    "path_file, detail",
    [
        # a pair index that is not a permutation of the alphabet
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "index": [1, 2, 3, 9],
          "matrices": [_PAIR_MATRIX_4]}, "index must list each alphabet symbol"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "index": [1, 2, 3, 9],
          "moves": [{"winner": 1, "losers": [4], "type": 0, "k": None, "power": 1}]},
         "index must list each alphabet symbol"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "index": [1, 2, 3, 3],
          "matrices": [_PAIR_MATRIX_4]}, "index must list each alphabet symbol"),
        # matrices of the wrong size for the file's n or alphabet
        ({"version": 1, "flavor": "permutation", "n": 6, "matrices": [_TYPE1_4]},
         "one row per symbol"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4, 5], "matrices": [_PAIR_MATRIX_4]},
         "one row per symbol"),
        # records read without matrices that name a symbol outside the file
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "moves": [{"winner": 4, "losers": [9], "type": 0}, {"winner": 4, "losers": [3], "type": 0}]},
         "names 9"),
        ({"version": 1, "flavor": "permutation", "n": 6, "moves": [{"winner": 6, "losers": [9], "type": 0}]},
         "names 9"),
        # matrix entries that are not JSON integers (each once read as the 1 it replaces)
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "matrices": [[[1, 0, 0, 1.9]] + _PAIR_MATRIX_4[1:]]}, "integers"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "matrices": [[[True, 0, 0, 1]] + _PAIR_MATRIX_4[1:]]}, "integers"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "matrices": [[[1, 0, 0, "1"]] + _PAIR_MATRIX_4[1:]]}, "integers"),
        # strings where JSON arrays belong (each once split into one-character symbols)
        ({"version": 1, "flavor": "pair", "alphabet": "abcd",
          "moves": [{"winner": "d", "losers": ["c"], "type": 0}]}, "JSON arrays"),
        ({"version": 1, "flavor": "pair", "alphabet": ["a", "b", "c", "d"], "index": "abcd",
          "moves": [{"winner": "d", "losers": ["c"], "type": 0}]}, "JSON arrays"),
        ({"version": 1, "flavor": "pair", "alphabet": ["a", "b", "c", "d"],
          "start": {"alphabet": ["a", "b", "c", "d"], "p0": "abcd", "p1": ["d", "c", "b", "a"]},
          "moves": [{"winner": "d", "losers": ["a"], "type": 0}]}, "p0 must be a JSON array"),
        # losers given as a string (once split into "a" and "b"), and a boolean power (once read as 1)
        ({"version": 1, "flavor": "pair", "alphabet": ["a", "b", "c", "d"],
          "moves": [{"winner": "d", "losers": "ab", "type": 0, "power": 2}]}, "losers as a JSON array"),
        ({"version": 1, "flavor": "pair", "alphabet": ["a", "b", "c", "d"],
          "moves": [{"winner": "d", "losers": ["a"], "type": 0, "power": True}]}, "power as an integer"),
        # the same two beside the matrix they describe
        ({"version": 1, "flavor": "pair", "alphabet": ["a", "b", "c", "d"], "matrices": [_PAIR_MATRIX_4],
          "moves": [{"winner": "a", "losers": "d", "type": 0}]}, "losers as a JSON array"),
        ({"version": 1, "flavor": "pair", "alphabet": ["a", "b", "c", "d"], "matrices": [_PAIR_MATRIX_4],
          "moves": [{"winner": "a", "losers": ["d"], "type": 0, "power": True}]}, "power as an integer"),
        # a negative count, once read as a move
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3], "matrices": [[[1, -1, 0], [0, 1, 0], [0, 0, 1]]]},
         "must be positive"),
        # a type that is not 0, 1 or null (a string once accepted, true once read as 1), without and with matrices
        ({"version": 1, "flavor": "pair", "alphabet": ["a", "b", "c", "d"],
          "moves": [{"winner": "d", "losers": ["a"], "type": "zero"}]}, "type must be 0, 1 or null"),
        ({"version": 1, "flavor": "pair", "alphabet": ["a", "b", "c", "d"], "matrices": [_PAIR_MATRIX_4],
          "moves": [{"winner": "a", "losers": ["d"], "type": "zero"}]}, "type must be 0, 1 or null"),
        ({"version": 1, "flavor": "permutation", "n": 4,
          "moves": [{"winner": 2, "losers": [4], "type": True, "k": 2, "power": 1}]}, "type must be 0, 1 or null"),
        ({"version": 1, "flavor": "permutation", "n": 4, "matrices": [_TYPE1_4],
          "moves": [{"winner": 2, "losers": [4], "type": True, "k": 2, "power": 1}]}, "type must be 0, 1 or null"),
        # a type-1 record whose winner and losers contradict its k and n, without and with its matrix
        ({"version": 1, "flavor": "permutation", "n": 4,
          "moves": [{"winner": 1, "losers": [3], "type": 1, "k": 2, "power": 1}]}, "the winner k, the losers [n]"),
        ({"version": 1, "flavor": "permutation", "n": 4, "matrices": [_TYPE1_4],
          "moves": [{"winner": 1, "losers": [3], "type": 1, "k": 2, "power": 1}]}, "disagrees with its move record"),
    ],
)
def test_malformed_path_files_exit_four(tmp_path, path_file, detail):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(path_file))
    proc = _run("recover", str(bad))
    assert proc.returncode == 4, proc.stderr
    out = _json_out(proc)
    assert out["error"] == "bad input"
    assert detail in out["detail"]


def test_simulate_start_rows_must_be_arrays(tmp_path):
    # the rows were once split into one-character symbols
    start = tmp_path / "strings.json"
    start.write_text(json.dumps({"alphabet": ["a", "b", "c", "d"], "p0": "abcd", "p1": "dcba"}))
    proc = _run("simulate", "--start", str(start), "--script", "0")
    assert proc.returncode == 4
    assert _json_out(proc)["detail"] == "p0 must be a JSON array"
    start.write_text(json.dumps({"n": 4, "image": "4321"}))
    proc = _run("simulate", "--start", str(start), "--script", "0")
    assert proc.returncode == 4
    assert _json_out(proc)["detail"] == "image must be a JSON array"


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


def test_recover_bounds_enumeration_by_its_candidates(tmp_path):
    # one move over nine symbols leaves 8!·8! row pairs, which were once all tried
    from ietrewind import cli

    start, path, out = tmp_path / "start.json", tmp_path / "path.json", tmp_path / "out.json"
    start.write_text(json.dumps({"alphabet": list(range(1, 10)), "p0": list(range(1, 10)), "p1": list(range(9, 0, -1))}))
    assert cli.main(["simulate", "--start", str(start), "--script", "0", "--out", str(path)]) == 0
    begin = time.perf_counter()
    assert cli.main(["recover", str(path), "--out", str(out)]) == 0
    assert time.perf_counter() - begin < 2
    assert json.loads(out.read_text())["count"] is None


def test_commands_decode_each_matrix_once_and_never_multiply(tmp_path, monkeypatch):
    from ietrewind import cli, lifting, matrices, rauzy, recovery, zorich

    def no_products(*args):
        raise AssertionError("a command multiplied matrices")

    for module in (cli, lifting, matrices, rauzy):
        monkeypatch.setattr(module, "matmul", no_products)
    calls = {"extract_move": 0, "decode_A": 0, "parse": 0, "render": 0, "enumerate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def copies_no_row(fn):
        def wrapper(a):
            mat = fn(a)
            assert all(row is given for row, given in zip(mat, a)), "a parsed matrix was read again"
            return mat
        return wrapper

    monkeypatch.setattr(cli, "extract_move", counted("extract_move", cli.extract_move))
    monkeypatch.setattr(recovery, "decode_A", counted("decode_A", recovery.decode_A))
    monkeypatch.setattr(cli, "_parse_matrix", counted("parse", cli._parse_matrix))
    render = counted("render", rauzy.record_matrix)
    for module in (rauzy, cli):
        monkeypatch.setattr(module, "record_matrix", render)
    for module in (rauzy, zorich):
        monkeypatch.setattr(module, "_check_square", copies_no_row(module._check_square))
    for name in ("enumerate_starting", "enumerate_agreeing_perms"):
        monkeypatch.setattr(cli, name, counted("enumerate", getattr(cli, name)))

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
        for argv in (["--until-c-complete", "2"], ["--length", "40"]):
            # an ungrouped simulate renders each matrix it writes once
            calls.update(render=0)
            data = run("simulate", "--start", str(start), "--seed", "4", *argv)
            assert calls["render"] == len(data["matrices"])
        for argv in (["--script", script], ["--seed", "4", "--length", "40"]):
            path_file = tmp_path / f"{flavor}-path.json"
            data = run("simulate", "--start", str(start), *argv, out=path_file)
            for command in (["recover", "--trace"], ["verify"], ["verify", "--oracle"]):
                calls.update(extract_move=0, decode_A=0, parse=0, render=0, enumerate=0)
                run(command[0], str(path_file), *command[1:])
                assert calls["parse"] == len(data["matrices"])
                assert calls["render"] == 0
                assert calls["enumerate"] == 1
                if flavor == "pair":
                    assert calls["extract_move"] == len(data["matrices"])
                else:
                    assert calls["decode_A"] == len(data["matrices"])
        # a permutation record without matrices is read from its records, and
        # its matrices are rendered only as the oracle's evidence
        if flavor == "permutation":
            del data["matrices"]
            path_file.write_text(json.dumps(data))
            calls.update(decode_A=0, render=0)
            run("verify", str(path_file), "--oracle")
            assert calls["decode_A"] == 0
            assert calls["render"] == len(data["moves"])
