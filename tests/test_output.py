"""The writer of every command output against ``json.dumps(indent=2)``.

``cli._emit`` lays the bulk ``matrices`` and ``moves`` arrays out itself; the
bytes must stay exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
for every output the commands write, whatever the pair symbols are.  A
command hands the writer its moves themselves (``cli._Records``), for its
records and its matrices alike, so each comparison encodes the object with
its records built by :func:`_serialize_moves`, the record builder the writer
once used, and its matrices rendered by ``rauzy.record_matrix``, the
library's renderer.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from ietrewind import cli
from ietrewind.core import Permutation, is_irreducible_pair, is_irreducible_perm, make_pair
from ietrewind.rauzy import record_matrix

# strings that look like the JSON around them, plus non-ASCII and a NUL
_TRICKY = ['"', "\\", ",", '", "', "[", "]", "{", "}", ": ", "\n", "é", "☃", "\u0000", "1"]
_SYMBOL = st.one_of(
    st.integers(-10**6, 10**6),
    st.sampled_from(_TRICKY),
    st.lists(st.sampled_from(_TRICKY + ["a", " "]), min_size=1, max_size=4).map("".join),
)


def _serialize_moves(moves, types, position):
    """One v1 record per move and its type: a ZorichMove, or a permutation
    type-1 power ``(k, p)``, whose one loser is the last position n."""
    records = []
    for m, t in zip(moves, types):
        if type(m) is tuple:
            k, p = m
            records.append({"winner": k, "losers": [len(position)], "type": 1, "k": k, "power": p})
        else:
            losers = sorted(m.losers, key=position.__getitem__)
            records.append({"winner": m.winner, "losers": losers, "type": t, "k": None, "power": m.steps})
    return records


def _plain(obj):
    """``obj`` with its moves as the records :func:`_serialize_moves` builds,
    and its matrices as :func:`record_matrix` renders them, which json.dumps encodes."""
    if type(obj) is not dict:
        return obj
    plain = dict(obj)
    if type(obj.get("moves")) is cli._Records:
        records = obj["moves"]
        if records.moves is None:  # runs alone, as sharpness hands them: one unit move per loser
            plain["moves"] = [{"winner": w, "losers": [x], "type": t, "k": None, "power": 1}
                              for w, losers, t in records.runs for x in losers]
        else:
            plain["moves"] = _serialize_moves(records.moves, records.types, records.position)
    if type(obj.get("matrices")) is cli._Records:
        records = obj["matrices"]
        plain["matrices"] = [record_matrix(m, tuple(records.position)) for m in records.moves]
    return plain


def _stdlib_text(obj):
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _written(argv):
    """Run a command in-process; its exit code, each (object, bytes) it wrote,
    and every value the command handed to json.dumps with an indent."""
    seen, indented = [], []
    real, real_dumps = cli._emit, json.dumps

    def emit(obj, out_path):
        real(obj, out_path)
        seen.append((obj, Path(out_path).read_bytes()))

    def dumps(obj, **kwargs):
        if "indent" in kwargs:
            indented.append(obj)
        return real_dumps(obj, **kwargs)

    cli._emit, json.dumps = emit, dumps
    try:
        code = cli.main(argv)
    finally:
        cli._emit, json.dumps = real, real_dumps
    return code, seen, indented


def _assert_stdlib_bytes(seen):
    for obj, written in seen:
        assert written == _stdlib_text(obj).encode()


def _assert_moves_laid_out(obj, indented):
    """The indent encoder never received the moves, nor the whole output."""
    assert not any(value is obj or value is obj["moves"] for value in indented)


def _runs(types):
    """Lengths of the maximal same-type runs: one winner per run for pairs, one type for permutations."""
    runs = []
    for prev, t in zip([None, *types], types):
        if t == prev:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


_TYPES = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 40)), min_size=1, max_size=6
).map(lambda runs: [t for t, length in runs for _ in range(length)])


def _simulate_both(work, start, types):
    """Ungrouped and grouped ``simulate`` of ``types``; each checked, and the written files."""
    start_file = work / "start.json"
    start_file.write_text(json.dumps(start))
    moves = ",".join(map(str, types))
    files = []
    for name, script in (("plain", moves), ("grouped", f"{moves},group({','.join(map(str, _runs(types)))})")):
        out = work / f"{name}.json"
        code, seen, indented = _written(["simulate", "--start", str(start_file), "--script", script, "--out", str(out)])
        assert code == 0
        _assert_stdlib_bytes(seen)
        (obj, _), = seen
        # the laid-out paths were taken, not the json.dumps fallback
        _assert_moves_laid_out(obj, indented)
        assert cli._matrices_json(obj["matrices"]) is not None
        files.append((out, _plain(obj)))
    return files


def _check_pair(alphabet, row1, types, outside):
    """Simulate, recover and fail on one pair; the grouped simulate output."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files = _simulate_both(work, {"alphabet": alphabet, "p0": alphabet, "p1": row1}, types)
        for out, _ in files:
            code, seen, _ = _written(["recover", str(out), "--trace", "--out", str(work / "report.json")])
            assert code == 0
            _assert_stdlib_bytes(seen)
        # an error body that quotes a symbol
        bad = work / "bad.json"
        bad.write_text(json.dumps({
            "version": 1, "flavor": "pair", "alphabet": alphabet,
            "moves": [{"winner": alphabet[0], "losers": [outside], "type": 0}],
        }))
        code, seen, _ = _written(["recover", str(bad), "--out", str(work / "error.json")])
        assert code == 4 and seen[0][0]["error"] == "bad input"
        _assert_stdlib_bytes(seen)
    return files[1][1]


def _check_perm(image, types):
    """Simulate and recover one permutation; the grouped simulate output."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files = _simulate_both(work, {"n": len(image), "image": image}, types)
        code, seen, _ = _written(["recover", str(files[0][0]), "--trace", "--out", str(work / "report.json")])
        assert code == 0
        _assert_stdlib_bytes(seen)
    return files[1][1]


# ``recover`` enumerates the agreeing starts up to 9 symbols, (n-1)!^2 of
# them after a short path, so the property stays at 6; the long-block test
# below writes 12.
@given(
    st.lists(_SYMBOL, min_size=3, max_size=6, unique=True).flatmap(
        lambda alphabet: st.tuples(st.just(alphabet), st.permutations(alphabet))
    ),
    _TYPES,
    _SYMBOL,
)
@settings(deadline=None, max_examples=30)
def test_pair_outputs_are_the_stdlib_bytes(rows, types, outside):
    alphabet, row1 = rows
    assume(outside not in alphabet)
    assume(is_irreducible_pair(make_pair(alphabet, row1, alphabet)))
    _check_pair(alphabet, list(row1), types, outside)


@given(st.integers(3, 8).flatmap(lambda n: st.permutations(range(1, n + 1))), _TYPES)
@settings(deadline=None, max_examples=30)
def test_permutation_outputs_are_the_stdlib_bytes(image, types):
    assume(is_irreducible_perm(Permutation(image)))
    _check_perm(list(image), types)


def test_long_blocks_are_the_stdlib_bytes():
    # the winner leads the other row, so one type-0 run of 120 moves hands
    # each of the 11 other symbols 10 or more losses in one record
    alphabet = [7, "a", '"', "\\", ",", '", "', "[", "]", "{", "é", "\u0000", -3]
    grouped = _check_pair(alphabet, [alphabet[-1], *alphabet[:-1]], [0] * 120 + [1, 0], "x")
    (record, *_), (matrix, *_) = grouped["moves"], grouped["matrices"]
    assert record["power"] == 120 and len(record["losers"]) == 11
    assert min(matrix[-1][:-1]) >= 10
    # a type-1 power of 30 at n=4
    grouped = _check_perm([4, 3, 2, 1], [1] * 30 + [0] * 12)
    assert grouped["moves"][0]["type"] == 1 and grouped["moves"][0]["power"] == 30


def test_sharpness_output_is_the_stdlib_bytes(tmp_path):
    out = tmp_path / "sharp.json"
    code, seen, indented = _written(["sharpness", "--n", "12", "--out", str(out)])
    assert code == 0
    _assert_stdlib_bytes(seen)
    _assert_moves_laid_out(seen[0][0], indented)
    code, seen, _ = _written(["recover", str(out), "--trace", "--out", str(tmp_path / "report.json")])
    assert code == 0
    _assert_stdlib_bytes(seen)


def test_other_shapes_fall_back_to_the_stdlib():
    # values a laid-out array cannot hold exactly go through json.dumps itself
    cases = [
        {"matrices": [], "moves": []},
        {"matrices": [[[True, 0], [0, 1]]], "moves": [{"k": True, "losers": [1], "power": 1, "type": 0, "winner": 2}]},
        {"matrices": [[["[", 0], [0, 1]]], "moves": [{"k": None, "losers": [], "power": 1, "type": 0, "winner": 2}]},
        {"matrices": [[[1, [0]], [0, 1]]], "moves": [{"k": None, "losers": [1.0], "power": 1, "type": 0, "winner": 2}]},
        {"matrices": [[[1, 0], []]], "moves": [{"losers": [1], "power": 1, "type": 0, "winner": 2}]},
        {"matrices": [[5]], "moves": [{"k": None, "losers": "ab", "power": 1, "type": 0, "winner": 2, "x": 0}]},
        {"moves": [{"k": None, "losers": [[1]], "power": 1, "type": 0, "winner": 2}]},
        {"moves": 3, "a": {"b": [1, {"c": []}]}}, [1, 2], "x", {},
    ]
    for obj in cases:
        assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)
    # no moves at all: laid out as json.dumps lays out an empty list
    assert cli._dumps({"moves": cli._Records((), (), {1: 0})}) == json.dumps({"moves": []}, indent=2)


def test_permutation_trace_skips_the_indent_encoder(tmp_path, monkeypatch):
    # a permutation trace nests as matrices do, so it is laid out like them
    start, path, report = tmp_path / "start.json", tmp_path / "path.json", tmp_path / "report.json"
    start.write_text(json.dumps({"n": 6, "image": [6, 3, 5, 1, 4, 2]}))
    assert cli.main(["simulate", "--start", str(start), "--seed", "3", "--until-c-complete", "2", "--out", str(path)]) == 0
    real, indented = json.dumps, []

    def dumps(obj, **kwargs):
        if "indent" in kwargs:
            indented.append(obj)
        return real(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    assert cli.main(["recover", str(path), "--trace", "--out", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert len(obj["trace"]) > 1
    assert not any(value in (obj, obj["trace"]) for value in indented)  # neither whole nor alone
    assert report.read_text() == real(obj, sort_keys=True, indent=2) + "\n"


# --- rows rendered once per row object --------------------------------------

def test_shared_rows_are_the_stdlib_bytes():
    # one row object at several positions of one matrix and across matrices
    a, b = [1, 0, 12], (0, -3, 10**30)
    mats = [[a, b, a], [b, b, [0, 0, 1]], (a, [7, 8, 9], b)]
    assert cli._matrices_json(mats) is not None
    for obj in ({"matrices": mats, "x": [a]}, {"matrices": [mats[0]] * 3}):
        assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_a_shared_row_that_is_not_all_integers_falls_back():
    # the row is checked on its first sight; each later sight must not skip that check
    a, flag, empty = [1, 0], [True, 1], []
    for mats in ([[a, flag], [flag, a]], [[a, a], [a, flag]], [[flag]], [[a], [empty, a]], [[a, 1.0]]):
        assert cli._matrices_json(mats) is None
        obj = {"matrices": mats, "trace": mats}
        assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_a_memoised_permutation_trace_is_the_stdlib_bytes():
    # equal blocks of successive states are one list, as cli._recover_report builds them
    first, second, rest = [1], [3], [5, 2, 4]
    trace = [[first, second, rest], [second, first, rest], [rest, [2], first, second]]
    obj = {"flavor": "permutation", "trace": trace, "Q": trace[-1], "unique": False}
    assert cli._matrices_json(trace) is not None
    assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


_ENTRY = st.one_of(st.integers(-10**25, 10**25), st.sampled_from([True, False, 1.0, "1", None, [0]]))


@given(
    st.lists(st.lists(st.integers(-10**25, 10**25), min_size=1, max_size=5) | st.lists(_ENTRY, max_size=4),
             min_size=1, max_size=6),
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6), min_size=1, max_size=6),
)
@settings(deadline=None, max_examples=200)
def test_matrices_drawn_from_a_pool_of_row_objects_are_the_stdlib_bytes(pool, picks):
    mats = [[pool[i % len(pool)] for i in pick] for pick in picks]
    obj = {"matrices": mats, "trace": mats[::-1]}
    assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def _emitted(monkeypatch, argv):
    """The object a command hands to ``cli._emit``, which then writes nothing."""
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda obj, out_path: seen.append(obj))
    assert cli.main(argv) == 0
    (obj,) = seen
    return obj


def _row_objects(arrays):
    return {id(row) for array in arrays for row in array}


def test_simulate_matrices_share_the_identity_rows(tmp_path, monkeypatch):
    # simulate hands the writer its moves for the matrices as for the records,
    # and the writer lays each matrix out from its move; the reference
    # renderer shares all but a winner row with identity(n), so n + L at most
    n, length = 32, 2000
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"alphabet": list(range(1, n + 1)), "p0": list(range(1, n + 1)),
                                 "p1": list(range(n, 0, -1))}))
    obj = _emitted(monkeypatch, ["simulate", "--start", str(start), "--seed", "1", "--length", str(length)])
    assert obj["matrices"] is obj["moves"]
    mats = _plain(obj)["matrices"]
    assert len(mats) == length
    assert len(_row_objects(mats)) <= n + length
    # type-1 matrices share their rows too
    start.write_text(json.dumps({"n": 16, "image": list(range(16, 0, -1))}))
    obj = _emitted(monkeypatch, ["simulate", "--start", str(start), "--seed", "2", "--length", "300"])
    assert {m["type"] for m in _plain(obj)["moves"]} == {0, 1}
    assert len(_row_objects(_plain(obj)["matrices"])) <= 16 + 300


def test_permutation_trace_rows_are_shared(tmp_path, monkeypatch):
    start, path = tmp_path / "start.json", tmp_path / "path.json"
    start.write_text(json.dumps({"n": 12, "image": [12, 3, 9, 1, 11, 5, 2, 8, 10, 4, 7, 6]}))
    argv = ["simulate", "--start", str(start), "--seed", "5", "--until-c-complete", "3", "--out", str(path)]
    assert cli.main(argv) == 0
    trace = _emitted(monkeypatch, ["recover", str(path), "--trace"])["trace"]
    blocks = {tuple(row) for state in trace for row in state}
    assert len(_row_objects(trace)) <= len(blocks) < sum(map(len, trace))


# --- written piece by piece -------------------------------------------------

def _pair_path(tmp_path, monkeypatch, n, length):
    """The ungrouped pair path object ``simulate`` writes for ``length`` random moves from the reversed pair."""
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"alphabet": list(range(1, n + 1)), "p0": list(range(1, n + 1)),
                                 "p1": list(range(n, 0, -1))}))
    return _emitted(monkeypatch, ["simulate", "--start", str(start), "--seed", "1", "--length", str(length)])


def test_emit_holds_no_whole_output_text(tmp_path, monkeypatch):
    # the text of an output is written as it is laid out, never held whole
    objects = [_pair_path(tmp_path, monkeypatch, 32, 2000), _emitted(monkeypatch, ["sharpness", "--n", "64"])]
    monkeypatch.undo()
    for obj in objects:
        out = tmp_path / "out.json"
        tracemalloc.start()
        try:
            cli._emit(obj, str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        written = out.read_bytes()
        assert written == _stdlib_text(obj).encode()
        assert peak < len(written) / 4, (peak, len(written))


def test_stdout_gets_the_bytes_of_a_file(tmp_path, monkeypatch, capsys):
    obj = _pair_path(tmp_path, monkeypatch, 8, 300)
    monkeypatch.undo()
    expected = _stdlib_text(obj)
    for out_path in (None, "-"):
        cli._emit(obj, out_path)
        assert capsys.readouterr().out == expected
    cli._emit(obj, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_bytes() == expected.encode()


class _Sink:
    """A stdout that notes which values json.dumps(indent=...) had been given by its first write."""

    def __init__(self, indented):
        self.indented, self.pieces, self.first = indented, [], None

    def write(self, text):
        if self.first is None:
            self.first = list(self.indented)
        self.pieces.append(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_a_late_fallback_is_decided_before_the_first_byte(monkeypatch):
    # the last matrix holds true, the last record a float: each array is
    # checked whole, so its json.dumps fallback runs before anything is written
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    record = {"k": None, "losers": [1, 2], "power": 2, "type": 0, "winner": 4}
    good_mats, good_moves = [identity] * 50, [record] * 50
    late_mats = good_mats + [[*identity[:3], [1, 0, True, 1]]]
    late_moves = good_moves + [{**record, "losers": [1, 2.0]}]
    real, indented = json.dumps, []

    def dumps(obj, **kwargs):
        if "indent" in kwargs:
            indented.append(obj)
        return real(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    for obj, late in (
        ({"matrices": late_mats, "moves": good_moves}, late_mats),
        ({"matrices": good_mats, "moves": late_moves}, late_moves),
        ({"trace": late_mats, "flavor": "permutation"}, late_mats),
    ):
        indented.clear()
        sink = _Sink(indented)
        monkeypatch.setattr(sys, "stdout", sink)
        cli._emit(obj, None)
        monkeypatch.setattr(sys, "stdout", sys.__stdout__)
        assert any(value is late for value in sink.first)
        assert "".join(sink.pieces) == real(obj, sort_keys=True, indent=2) + "\n"


def test_sharpness_writes_from_the_builder_runs_alone(monkeypatch, tmp_path):
    # the unit moves and types that the result expands its runs into are never read
    from ietrewind.sharpness import SharpnessResult

    def unread(result):
        raise AssertionError("sharpness read the expanded unit moves")

    monkeypatch.setattr(SharpnessResult, "moves", property(unread))
    monkeypatch.setattr(SharpnessResult, "types", property(unread))
    out = tmp_path / "sharp.json"
    assert cli.main(["sharpness", "--n", "16", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "699b0887e040af6b2b6ae2e53b62e5e700b515ed589b179b3525a92f1ad7d8e1")


def test_sharpness_frees_the_builder_result_before_writing(monkeypatch):
    # the builder's result and its checkpoints are not alive while the output
    # is written: the output keeps only its runs
    real, refs, alive = cli.build_ambiguous_path, [], []

    def build(n):
        result = real(n)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "build_ambiguous_path", build)
    monkeypatch.setattr(cli, "_emit", lambda obj, out_path: alive.append(refs[0]() is not None))
    assert cli.main(["sharpness", "--n", "16"]) == 0
    assert alive == [False]
