"""End-to-end runs of the command line tool."""
from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ietrewind.core import Permutation, is_irreducible_pair, is_irreducible_perm, make_pair, pair_to_obj, perm_to_obj
from ietrewind.rauzy import simulate_pair, simulate_perm
from ietrewind.zorich import accelerate

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


def test_piped_path_files_give_the_bytes_of_their_paths(tmp_path, pair_start_file):
    # stdin is read as bytes, as a path is: a records-only file and one with matrices
    sharp, pair = tmp_path / "sharp.json", tmp_path / "pair.json"
    assert _run("sharpness", "--n", "9", "--out", str(sharp)).returncode == 0
    assert _run("simulate", "--start", pair_start_file, "--seed", "3", "--length", "30", "--out", str(pair)).returncode == 0
    for path in (sharp, pair):
        for command in ("recover", "verify"):
            want, piped = _run(command, str(path)), _run(command, "-", stdin_text=path.read_text())
            assert piped.returncode == want.returncode == 0
            assert piped.stdout == want.stdout


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


def test_verify_checks_the_types_of_a_file_with_a_grouping(tmp_path, pair_start_file):
    # a grouping of single moves leaves one record per move: the types are still checked
    path_file = tmp_path / "path.json"
    _run("simulate", "--start", pair_start_file, "--script", "1x3,0x2,1", "--out", str(path_file))
    data = json.loads(path_file.read_text())
    del data["matrices"]
    data["moves"][1]["type"] = 1 - data["moves"][1]["type"]
    for name, extra in (("flipped.json", {}), ("flipped_grouped.json", {"grouping": [1] * 6})):
        flipped = tmp_path / name
        flipped.write_text(json.dumps({**data, **extra}))
        proc = _run("verify", str(flipped))
        assert proc.returncode == 3, proc.stdout
        assert _json_out(proc)["checks"]["types_agree"] is False


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

    # usage errors once exited 2, which means unrealizable, with no JSON body
    for argv, detail in (
        (("sharpness", "--n", "0x10"), "iet-rewind sharpness: argument --n: invalid int value: '0x10'"),
        (("recover", str(unversioned), "--no-such-option"), "iet-rewind: unrecognized arguments: --no-such-option"),
        (("sharpness",), "iet-rewind sharpness: the following arguments are required: --n"),
    ):
        proc = _run(*argv)
        assert proc.returncode == 4, argv
        assert _json_out(proc) == {"error": "bad input", "detail": detail}


_PAIR_MATRIX_4 = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
_TYPE1_4 = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0]]  # type-1 at k=2, n=4
_PERM_0100 = [  # the matrices of simulate --script 0,1,0,0 from the permutation [5, 2, 1, 4, 3]
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 1]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 1]],
]


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
        # simulate --script 0,1,0,0 from [5, 2, 1, 4, 3], its third record naming the winner 2, not n
        # (once accepted beside its matrix, though rejected without it)
        ({"version": 1, "flavor": "permutation", "n": 5, "matrices": _PERM_0100,
          "moves": [{"winner": 5, "losers": [1], "type": 0}, {"winner": 4, "losers": [5], "type": 1, "k": 4},
                    {"winner": 2, "losers": [4], "type": 0}, {"winner": 5, "losers": [1], "type": 0}]},
         "matrix 3 disagrees with its move record"),
        # symbols equal to a file's symbol in value but not in JSON type (each once read as that symbol)
        ({"version": 1, "flavor": "permutation", "n": 4,
          "moves": [{"winner": True, "losers": [4], "type": 1, "k": 1}, {"winner": 4, "losers": [True], "type": 0}]},
         "names True"),
        ({"version": 1, "flavor": "permutation", "n": 4,
          "moves": [{"winner": 1.0, "losers": [4], "type": 1, "k": 1}, {"winner": 4, "losers": [1.0], "type": 0}]},
         "names 1.0"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "matrices": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]]],
          "moves": [{"winner": 4, "losers": [True], "type": 0}]}, "names True"),
        ({"version": 1, "flavor": "pair", "alphabet": [True, 2, 3, 4],
          "moves": [{"winner": 4, "losers": [1], "type": 0}]}, "names 1,"),
        # a k that is not an integer beside its matrix, and a k in a pair record (each once accepted)
        ({"version": 1, "flavor": "permutation", "n": 4, "matrices": [_TYPE1_4],
          "moves": [{"winner": 2, "losers": [4], "type": 1, "k": 2.0, "power": 1}]}, "an integer k only"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "moves": [{"winner": 4, "losers": [3], "type": 1, "k": 2}]}, "an integer k only"),
        # a repeated loser, without and with its matrix (each once merged into one loss)
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "moves": [{"winner": 4, "losers": [3, 3], "type": 0}, {"winner": 4, "losers": [3], "type": 0}]},
         "names a loser twice"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "matrices": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]],
          "moves": [{"winner": 4, "losers": [3, 3], "type": 0}]}, "names a loser twice"),
        # a start whose symbols equal the alphabet's in value but not in JSON type (once accepted)
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "start": {"alphabet": [True, 2, 3, 4], "p0": [True, 2, 3, 4], "p1": [4, 3, 2, True]},
          "moves": [{"winner": 4, "losers": [1], "type": 0}]}, "start names True"),
        # an index whose symbols equal the alphabet's in value but not in JSON type (once accepted)
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "index": [True, 2, 3, 4],
          "matrices": [_PAIR_MATRIX_4]}, "index must list each alphabet symbol"),
        # fields of the wrong shape, each once reported by a bare Python message
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "moves": [{"winner": 4, "losers": [3], "type": 0}, {"losers": [3], "type": 0}]},
         "move record 2 has no winner"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "moves": [[4, [3], 0]]},
         "move record 1 must be a JSON object"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "moves": {"a": 1}},
         "moves must be a JSON array"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "grouping": 5,
          "moves": [{"winner": 4, "losers": [3], "type": 0}]}, "grouping must be a JSON array"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "start": [1],
          "moves": [{"winner": 4, "losers": [3], "type": 0}]}, "start must be a JSON object"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "moves": [{"winner": [4], "losers": [3], "type": 0}]}, "the winner of move record 1 names [4]"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "moves": [{"winner": 4, "losers": [2, [3]], "type": 0}]}, "a loser of move record 1 names [3]"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "start": {"alphabet": [1, 2, 3, 4]},
          "moves": [{"winner": 4, "losers": [3], "type": 0}]}, "p0 must be a JSON array"),
        ({"version": 1, "flavor": "permutation", "n": 4, "start": {"n": 4},
          "moves": [{"winner": 4, "losers": [3], "type": 0}]}, "image must be a JSON array"),
        # sizes past sys.maxsize, each once ending in an OverflowError traceback
        ({"version": 1, "flavor": "permutation", "n": 10**19,
          "moves": [{"winner": 10**19, "losers": [1], "type": 0}]}, "n must not pass"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3],
          "matrices": [[[1, 10**19, 10**19], [0, 1, 0], [0, 0, 1]]]}, "must not pass"),
        # values that cannot be what their field holds, each once reported by a bare Python message
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, [4]],
          "moves": [{"winner": 1, "losers": [2], "type": 0}]}, "alphabet names [4], which cannot be a symbol"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3], "matrices": [[1, [0, 1, 0], [0, 0, 1]]]},
         "matrix rows must be JSON arrays"),
        ({"version": 1, "flavor": "permutation", "n": 3, "start": {"image": [1, "a", 3]},
          "moves": [{"winner": 3, "losers": [1], "type": 0}]}, "image must hold JSON integers"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3],
          "start": {"alphabet": [1, 2, 3], "p0": [[1], 2, 3], "p1": [3, 2, 1]},
          "moves": [{"winner": 3, "losers": [1], "type": 0}]}, "p0 names [1], which cannot be a symbol"),
        ({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4], "index": [1, 2, 3, {"a": 4}],
          "moves": [{"winner": 1, "losers": [2], "type": 0}]}, "index names {'a': 4}, which cannot be a symbol"),
        # a version, and a start's n, that equal an integer but are not JSON integers (each once accepted)
        ({"version": True, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "moves": [{"winner": 4, "losers": [3], "type": 0}]}, "expected a version-1 path file"),
        ({"version": 1.0, "flavor": "pair", "alphabet": [1, 2, 3, 4],
          "moves": [{"winner": 4, "losers": [3], "type": 0}]}, "expected a version-1 path file"),
        ({"version": 1, "flavor": "permutation", "n": 3, "start": {"n": 3.0, "image": [3, 2, 1]},
          "moves": [{"winner": 3, "losers": [1], "type": 0}]}, "declared n disagrees with the image length"),
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
    # a missing row, and a start that is not an object (each once a bare Python message)
    start.write_text(json.dumps({"alphabet": [1, 2, 3], "p0": [1, 2, 3]}))
    proc = _run("simulate", "--start", str(start), "--script", "0")
    assert proc.returncode == 4
    assert _json_out(proc)["detail"] == "p1 must be a JSON array"
    start.write_text(json.dumps(["image"]))
    proc = _run("simulate", "--start", str(start), "--script", "0")
    assert proc.returncode == 4
    assert "start file must hold" in _json_out(proc)["detail"]
    # a symbol that is an array, and an image entry that is not an integer (each once a bare Python message)
    for obj, detail in (
        ({"alphabet": [[1], 2, 3], "p0": [[1], 2, 3], "p1": [3, 2, [1]]}, "alphabet names [1], which cannot be a symbol"),
        ({"alphabet": [1, 2, 3], "p0": [1, 2, 3], "p1": [3, 2, [1]]}, "p1 names [1], which cannot be a symbol"),
        ({"image": [3, "a", 1]}, "image must hold JSON integers"),
        # a row symbol written unlike its alphabet entry: the file was one its own reader rejects
        ({"alphabet": [1, 2, 3], "p0": [1, 2, 3], "p1": [3, True, 2]}, "start names true where its alphabet has 1"),
        ({"alphabet": [0.0, 1, 2], "p0": [-0.0, 1, 2], "p1": [2, 1, 0.0]}, "start names -0.0 where its alphabet has 0.0"),
        # a declared size that equals the image length but is not a JSON integer (once accepted)
        ({"n": 3.0, "image": [3, 2, 1]}, "declared n disagrees with the image length"),
    ):
        start.write_text(json.dumps(obj))
        proc = _run("simulate", "--start", str(start), "--script", "0")
        assert proc.returncode == 4
        assert _json_out(proc)["detail"] == detail


def test_an_out_that_cannot_be_opened_exits_four(tmp_path, pair_start_file):
    # once a traceback with exit 1; the error body goes to stdout instead
    missing = str(tmp_path / "missing" / "out.json")
    for argv in (
        ["simulate", "--start", pair_start_file, "--script", "0,1", "--out", missing],
        ["sharpness", "--n", "8", "--out", missing],
        ["sharpness", "--n", "7", "--out", missing],  # the error body cannot go to --out either
    ):
        proc = _run(*argv)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ""
        out = _json_out(proc)
        assert out["error"] == "bad input"
        assert "No such file or directory" in out["detail"]
    assert not (tmp_path / "missing").exists()


def test_deeply_nested_json_exits_four(tmp_path):
    # once a RecursionError traceback with exit 1, for a path file and a start file alike
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv in (["recover", str(deep)], ["verify", str(deep)], ["simulate", "--start", str(deep), "--script", "0"]):
        proc = _run(*argv)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ""
        out = _json_out(proc)
        assert out["error"] == "bad input"
        assert out["detail"].startswith("not valid JSON: maximum recursion depth exceeded")


def test_a_record_that_does_not_fit_in_memory_exits_four(tmp_path):
    # a 128-byte file whose counts ask for 10^12 types once ended in a
    # MemoryError traceback with exit 1; the child's address space is capped,
    # so that the allocation fails whatever the machine's overcommit setting
    resource = pytest.importorskip("resource")
    e = 10**12
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3],
                                "matrices": [[[1, e, e], [0, 1, 0], [0, 0, 1]]]}))
    assert path.stat().st_size == 128

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(_CLI + ["recover", str(path)], capture_output=True, text=True, preexec_fn=cap)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == ""
    assert _json_out(proc) == {"error": "bad input", "detail": "the record does not fit in memory"}


def _collector_inputs(tmp_path):
    """(argv, exit code) for each way ``main`` returns, its files written in ``tmp_path``."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "version": 1, "flavor": "pair", "alphabet": [1, 2, 3, 4, 5], "start": _PAIR_START,
        "moves": [{"winner": 1, "losers": [5], "type": 1}, {"winner": 1, "losers": [4], "type": 1}],
    }))
    unrealizable = tmp_path / "unrealizable.json"
    unrealizable.write_text(json.dumps({
        "version": 1, "flavor": "pair", "alphabet": [1, 2, 3],
        "moves": [{"winner": 1, "losers": [3]}, {"winner": 2, "losers": [3]}],
    }))
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps({
        **json.loads(pair.read_text()),
        "start": {"alphabet": [1, 2, 3, 4, 5], "p0": [2, 1, 3, 4, 5], "p1": [5, 4, 3, 1, 2]},
    }))
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"version": 1, "flavor": "pair", "alphabet": [1, 2, 3], "moves": {"a": 1}}))
    out = str(tmp_path / "out.json")
    return [
        (["recover", str(pair), "--out", out], 0),
        (["verify", str(pair), "--out", out], 0),
        (["recover", str(unrealizable), "--out", out], 2),
        (["verify", str(tampered), "--out", out], 3),
        (["recover", str(malformed), "--out", out], 4),
        (["sharpness", "--n", "8", "--out", str(tmp_path / "missing" / "out.json")], 4),
    ]


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    from ietrewind.cli import main

    was = gc.isenabled()
    try:
        for argv, code in _collector_inputs(tmp_path):
            _set_collector(enabled)
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
        # a usage error is malformed input, its body on stdout
        capsys.readouterr()
        _set_collector(enabled)
        assert main(["recover", "--no-such-option"]) == 4
        assert json.loads(capsys.readouterr().out)["error"] == "bad input"
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit) as exc:  # argparse's own exit, for --help
            main(["recover", "--help"])
        assert exc.value.code == 0
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was)


def test_a_command_runs_no_collection(tmp_path):
    # nothing a command builds is garbage before it exits, so the collector
    # would only rescan the records it reads
    from ietrewind.cli import main

    sharp, out = str(tmp_path / "sharp.json"), str(tmp_path / "out.json")
    assert main(["sharpness", "--n", "64", "--out", sharp]) == 0
    was = gc.isenabled()
    gc.enable()
    try:
        # get_stats() snapshots the counts before it allocates its result, and
        # nothing is allocated between main's return and that call
        before = gc.get_stats()
        code = main(["recover", sharp, "--out", out])
        after = gc.get_stats()
        assert code == 0
        assert sum(s["collections"] for s in after) == sum(s["collections"] for s in before)
    finally:
        _set_collector(was)


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

    for n in ("7", str(10**19)):  # the second once ended in an OverflowError traceback
        proc = _run("sharpness", "--n", n)
        assert proc.returncode == 4, n
        assert _json_out(proc)["error"] == "bad input"


def _type_runs(types) -> list:
    """[type, length] of each maximal same-type run of ``types``."""
    runs = []
    for t in types:
        if runs and runs[-1][0] == t:
            runs[-1][1] += 1
        else:
            runs.append([t, 1])
    return runs


@settings(max_examples=150, deadline=None)
@given(
    pair=st.booleans(),
    n=st.integers(3, 8),
    seed=st.integers(0, 2**32 - 1),
    types=st.lists(st.integers(0, 1), min_size=1, max_size=40),
    grouped=st.booleans(),
)
def test_the_forward_moves_are_the_moves_the_reader_reads(pair, n, seed, types, grouped):
    from ietrewind import cli

    rng, symbols = random.Random(seed), list(range(1, n + 1))
    while True:
        rng.shuffle(symbols)
        start = make_pair(range(1, n + 1), symbols) if pair else Permutation(tuple(symbols))
        if (is_irreducible_pair if pair else is_irreducible_perm)(start):
            break
    path = (simulate_pair if pair else simulate_perm)(start, types)
    script = ",".join(map(str, types))
    want = path.moves
    if grouped:  # by maximal runs, which share one winner
        runs = _type_runs(types)
        lengths = [length for _, length in runs]
        script = ",".join(f"{t}x{length}" for t, length in runs) + f",group({','.join(map(str, lengths))})"
        want = accelerate(path, lengths).moves
    with tempfile.TemporaryDirectory() as work:
        start_file, out = Path(work) / "start.json", Path(work) / "path.json"
        start_file.write_text(json.dumps(pair_to_obj(start) if pair else perm_to_obj(start)))
        assert cli.main(["simulate", "--start", str(start_file), "--script", script, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
    assert cli.load_path_file(data)["moves"] == list(want)
    if not grouped:  # the records alone give the same moves
        del data["matrices"]
        assert cli.load_path_file(data)["moves"] == list(want)


def test_a_sharpness_file_reads_back_as_the_builders_moves(tmp_path):
    # the writer renders each record from its move; the reader must give the
    # move back, one shared object per distinct move
    from ietrewind import cli
    from ietrewind.sharpness import build_ambiguous_path

    out = tmp_path / "sharp.json"
    for n in range(8, 41):
        assert cli.main(["sharpness", "--n", str(n), "--out", str(out)]) == 0
        moves = cli.load_path_file(json.loads(out.read_text()))["moves"]
        assert moves == list(build_ambiguous_path(n).moves), n
        assert len({id(m) for m in moves}) == len(set(moves)), n


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


@pytest.mark.parametrize("n", [16, 32])
def test_verify_perm_oracle_past_the_brute_force_cap(tmp_path, n):
    # the permutation brute force stops at eight symbols; the forward oracle does not
    rng = random.Random(n)
    image = rng.sample(range(1, n + 1), n)
    while any(max(image[:k]) == k for k in range(1, n)):
        image = rng.sample(range(1, n + 1), n)
    start, path_file = tmp_path / "start.json", tmp_path / "walk.json"
    start.write_text(json.dumps({"n": n, "image": image}))
    proc = _run("simulate", "--start", str(start), "--seed", str(n), "--until-c-complete", "3", "--out", str(path_file))
    assert proc.returncode == 0, proc.stderr
    proc = _run("verify", str(path_file), "--oracle")
    assert proc.returncode == 0, proc.stdout
    out = _json_out(proc)
    assert out["checks"] == {"start_agrees": True, "oracle_matches": True}
    assert out["recovered"]["pi"] == image


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
    calls = {"extract_move": 0, "decode_A": 0, "parse": 0, "render": 0, "enumerate": 0, "record": 0}

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
    monkeypatch.setattr(rauzy, "record_matrix", counted("render", rauzy.record_matrix))
    for module in (rauzy, matrices):
        monkeypatch.setattr(module, "winner_row_matrix", counted("render", module.winner_row_matrix))
    for name in ("rauzy_step_pair", "rauzy_step_perm"):
        monkeypatch.setattr(rauzy, name, counted("record", getattr(rauzy, name)))
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
        for argv in (["--until-c-complete", "2"], ["--length", "40"], ["--script", script]):
            # simulate lays each matrix it writes out from its move: it builds no dense matrix
            calls.update(render=0)
            data = run("simulate", "--start", str(start), "--seed", "4", *argv)
            assert calls["render"] == 0
            assert len(data["matrices"]) == len(data["moves"]) > 0
        for argv in (["--script", script], ["--seed", "4", "--length", "40"]):
            path_file = tmp_path / f"{flavor}-path.json"
            data = run("simulate", "--start", str(start), *argv, out=path_file)
            for command in (["recover", "--trace"], ["verify"], ["verify", "--oracle"]):
                calls.update(extract_move=0, decode_A=0, parse=0, render=0, enumerate=0, record=0)
                run(command[0], str(path_file), *command[1:])
                # the matrices of one text are read as one object, and checked and decoded once
                distinct = len({json.dumps(m) for m in data["matrices"]})
                assert calls["parse"] == distinct
                assert calls["render"] == calls["record"] == 0
                assert calls["enumerate"] == 1
                if flavor == "pair":
                    assert calls["extract_move"] == distinct
                else:
                    assert calls["decode_A"] == distinct
        # a record without matrices is read from its records alone, and the
        # oracle replays the same moves: nothing is rendered or decoded
        if flavor == "permutation":
            del data["matrices"]
            path_file.write_text(json.dumps(data))
            for command in (["recover", "--trace"], ["verify"], ["verify", "--oracle"]):
                calls.update(decode_A=0, render=0, record=0)
                run(command[0], str(path_file), *command[1:])
                assert calls["decode_A"] == 0
                assert calls["render"] == calls["record"] == 0


def test_commands_build_each_distinct_record_once(tmp_path, monkeypatch):
    from ietrewind import cli

    path_file, out = tmp_path / "sharp.json", tmp_path / "out.json"
    assert cli.main(["sharpness", "--n", "40", "--out", str(path_file)]) == 0
    obj = json.loads(path_file.read_text())
    distinct = {json.dumps(item, sort_keys=True) for item in obj["moves"]}
    assert len(obj["moves"]) > 2 * len(distinct)
    # the checks of a record's two halves, and of a record read as a dict, each call's fields kept
    checked = {"_record_head": [], "_record_move": [], "_record_tail": []}

    def spy(name):
        real = getattr(cli, name)

        def called(fields, *args):
            checked[name].append(json.dumps(fields, sort_keys=True))
            return real(fields, *args)

        monkeypatch.setattr(cli, name, called)

    for name in checked:
        spy(name)
    built = checked["_record_move"]
    halves = {name: {json.dumps({key: item[key] for key in keys}, sort_keys=True) for item in obj["moves"]}
              for name, keys in (("_record_head", ("k", "losers")), ("_record_tail", ("power", "type", "winner")))}
    assert len(distinct) > len(halves["_record_head"]) + len(halves["_record_tail"])
    for command in ("recover", "verify"):
        for calls in checked.values():
            calls.clear()
        assert cli.main([command, str(path_file), "--out", str(out)]) == 0
        assert not built  # no record is read as a dict
        for name, texts in halves.items():
            assert sorted(checked[name]) == sorted(texts), name  # once per distinct head and tail text
    # a bad record at entries 3 and 7, one text read once: the error names the first
    obj["moves"][2] = obj["moves"][6] = dict(obj["moves"][2], winner=99)
    path_file.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    records = cli._read_json(str(path_file))["moves"]
    assert records[2] is records[6]  # one dict per distinct text: read from the file's bytes
    for command in ("recover", "verify"):
        built.clear()
        assert cli.main([command, str(path_file), "--out", str(out)]) == 4
        assert json.loads(out.read_text())["detail"] == (
            "the winner of move record 3 names 99, which is not a symbol of the file")
        assert len(built) == len(set(built)) == len({json.dumps(item, sort_keys=True) for item in obj["moves"][:3]})
