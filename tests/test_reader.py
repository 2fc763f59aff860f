"""The path-file reader: ``cli._read_json`` reads a top-level ``matrices``
or ``moves`` array in the layout that every command writes from the file's
bytes, and must give what the text reader it replaces gave, errors
included."""
from __future__ import annotations

import json
import random
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from ietrewind import cli
from ietrewind.core import Permutation, is_irreducible_pair, is_irreducible_perm, make_pair, pair_to_obj, perm_to_obj


def _in_file(read):
    """``read`` as a function of the file's text (bytes, or a str in UTF-8)."""
    def reader(text):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "path.json"
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
            return read(str(path))
    return reader


@_in_file
def _reference(path):
    """What ``_read_json`` gave before it read matrices from bytes: ``json.load``
    of the file in text mode, its JSON errors (and now a RecursionError) as
    InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise cli.InputError(f"not valid JSON: {exc}") from exc


_read = _in_file(cli._read_json)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not raised: both readers must fail alike
        return type(exc), str(exc)


def _plain(read, text):
    """What ``read`` gives, its tuples made lists."""
    return json.loads(json.dumps(read(text)))


def _loaded(read, text):
    """The moves, types and start that ``load_path_file`` reads from what ``read`` gives."""
    data = cli.load_path_file(read(text))
    return data["moves"], data["types"], data["start"]


def _simulated(pair, n, seed, types, grouped, with_start, with_matrices=True):
    """The text of a ``simulate`` file, as the command writes it."""
    rng, symbols = random.Random(seed), list(range(1, n + 1))
    while True:
        rng.shuffle(symbols)
        start = make_pair(range(1, n + 1), symbols) if pair else Permutation(tuple(symbols))
        if (is_irreducible_pair if pair else is_irreducible_perm)(start):
            break
    script = ",".join(map(str, types))
    if grouped:  # one block per maximal run of a type
        runs = [len(m[0]) for m in re.finditer(r"0+|1+", "".join(map(str, types)))]
        script += f",group({','.join(map(str, runs))})"
    with tempfile.TemporaryDirectory() as work:
        start_file, out = Path(work) / "start.json", Path(work) / "path.json"
        start_file.write_text(json.dumps(pair_to_obj(start) if pair else perm_to_obj(start)))
        assert cli.main(["simulate", "--start", str(start_file), "--script", script, "--out", str(out)]) == 0
        text = out.read_text()
    if not (with_start and with_matrices):
        obj = json.loads(text)
        for key, kept in (("start", with_start), ("matrices", with_matrices)):
            if not kept:
                del obj[key]
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return text


def _sharpness(n):
    """The text of a ``sharpness --n n`` file, as the command writes it."""
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "path.json"
        assert cli.main(["sharpness", "--n", str(n), "--out", str(out)]) == 0
        return out.read_text()


def test_written_matrices_are_read_from_their_text():
    text = _simulated(True, 6, 1, [0, 1, 1, 0, 0, 1, 0], False, True)
    obj, want = _read(text), json.loads(text)
    matrices = obj.pop("matrices")
    assert obj == {key: value for key, value in want.items() if key != "matrices"}
    assert [list(map(list, m)) for m in matrices] == want["matrices"]
    assert all(type(m) is tuple and {tuple} == set(map(type, m)) for m in matrices)
    units = {}  # each unit row's text is read once, into one shared tuple
    for row in (row for m in matrices for row in m if sum(row) == 1):
        assert units.setdefault(row, row) is row


def test_written_records_are_read_from_their_text():
    for text in (_simulated(False, 5, 2, [1, 0, 0, 1, 1, 1, 0, 0], False, False, False),
                 _simulated(True, 5, 1, [0, 0, 1, 1, 0, 1, 1, 0], True, True, False), _sharpness(9)):
        obj = cli._laid_out_object(text.encode())  # takes no other path: it raises where the layout fails
        assert json.loads(json.dumps(obj)) == json.loads(text)
        assert type(obj["moves"]) is tuple
        shared = {}  # each record's text is read once, into one dict that its records share
        for record in obj["moves"]:
            assert shared.setdefault(json.dumps(record, sort_keys=True), record) is record
    assert len(shared) < len(obj["moves"])  # a sharpness file repeats records
    # with matrices, the records are left to json.loads: one dict per record
    text = _simulated(True, 5, 1, [0, 0, 1, 1, 0, 1, 1, 0], False, True)
    obj = cli._laid_out_object(text.encode())
    assert json.loads(json.dumps(obj)) == json.loads(text)
    assert type(obj["matrices"][0]) is tuple and type(obj["moves"]) is list


def test_other_record_layouts_read_as_json_loads_reads_them():
    text = _sharpness(8)
    record = text[text.index('"moves": [\n    {') + len('"moves": [\n    '):text.index("\n    },")] + "\n    }"
    for other, from_bytes in (
        (json.dumps(json.loads(text)), False),  # compact
        (text.replace('"moves": [\n    {', '"moves": [ \n    {'), False),  # one stray space
        (text.replace('"moves": [\n', '"moves": [\n    {},\n', 1), False),  # a record as json.dumps does not lay it out
        (text.replace('"index": [', '"moves": 7,\n  "index": ['), False),  # a key from m on before the array
        (text.replace('"version": 1', '"moves": 7,\n  "version": 1'), False),  # a repeated key's last value holds
        (text.replace('"moves": [', '"x": {"moves": [', 1).replace('\n  ],\n  "report"', '\n  ]},\n  "report"', 1),
         False),  # the layout, but not at top level
        (text.replace("\n", "\r\n"), False),
        (text.replace('"version": 1', '"version": 1,\n  "x": NaN'), False),  # another constant
        (text.replace('"winner": 8', '"winner": NaN', 1), True),  # a constant in a record is the record's own
        (text.replace('"winner": 8', '"winner": "\u00e9"', 1), True),  # not ASCII inside a record
        (text.replace('"type": 0', '"type": 0,\n      "type": 1', 1), True),  # a key repeated inside a record
        (text.replace('"k": null', '"losers": 5,\n      "k": null', 1), True),  # and across the losers' close
        (text.replace('"version": 1', '"version": "\u00e9\u00e9"'), True),  # not ASCII outside the records
        (text.replace(record, record + ",\n    " + record, 1), True),
        (text.replace(record, record[:record.index("],\n") + len("],\n      ")] + "\n    }", 1),
         False),  # a trailing comma after the losers' close
        (text.replace(record + ",", record + ",,", 1), False),
    ):
        assert other != text
        got = _outcome(_read, other)
        moves = got.get("moves") if type(got) is dict else None
        assert from_bytes is (type(moves) is tuple), other[:80]
        got, want = (json.dumps(_outcome(_plain, read, other), default=repr) for read in (_read, _reference))
        assert got == want, other[:80]
        assert _outcome(_loaded, _read, other) == _outcome(_loaded, _reference, other)


def test_other_layouts_and_values_read_as_json_loads_reads_them():
    text = _simulated(False, 5, 2, [1, 0, 0, 1], False, True)
    obj = json.loads(text)
    for other, from_bytes in (
        (json.dumps(obj), False),  # compact
        (json.dumps(obj, indent=4), False),
        (text.replace('"matrices": [\n    [', '"matrices": [ \n    ['), False),  # one stray space
        (text.replace('"version": 1', '"matrices": 7,\n  "version": 1'), False),  # a repeated key's last value holds
        (text.replace('"version": 1', '"version": 1,\n  "matrices": []'), False),
        (text.replace("        1\n", "        true\n", 1), False),
        (text.rstrip() + " x", False),
        ("\ufeff" + text, False),
        (text.replace("\n", "\r\n"), False),  # read with its line ends made "\n", as a text file is
        (text.replace("\n", "\r\n").rstrip() + " x", False),  # and its errors placed in that text
        (text.replace('"matrices": [', '"x": {"matrices": [', 1).replace('\n  ],\n  "moves"', '\n  ]},\n  "moves"', 1),
         False),  # the layout, but not at top level
        (text.replace('"version": 1', '"version": "\u00e9\u00e9"'), True),  # not ASCII outside the matrices
        (text.replace('"flavor": "permutation"', '"flavor": "permutation", "x": [{"matrices": 1}]'), True),
        (text.replace('"flavor": "permutation"', '"flavor": "permutation", "matrices": 7'), True),  # the array's value holds
        (text.replace('"version": 1', '"version": 1,\n  "x": NaN'), False),  # another constant
        (text.replace('"version": 1', '"version": 1,\n  "x": -Infinity'), False),
        ("[" + text + "]", False),  # the layout in an object that is not the top level
    ):
        got = _outcome(_read, other)
        matrices = got.get("matrices") if type(got) is dict else None
        assert from_bytes is (type(matrices) is list and bool(matrices) and type(matrices[0]) is tuple), other[:80]
        # compared as text, as NaN != NaN; an error's type shows by its repr
        got, want = (json.dumps(_outcome(_plain, read, other), default=repr) for read in (_read, _reference))
        assert got == want, other[:80]


def test_a_file_that_is_not_utf_8_fails_as_before():
    text = _simulated(True, 4, 3, [0, 1], False, True)
    for data in (text.replace('"version": 1', '"version": "\udcff"').encode("utf-8", "surrogateescape"),
                 text.replace("        0\n", "        0\udcff\n", 1).encode("utf-8", "surrogateescape")):
        assert _outcome(_read, data)[0] is UnicodeDecodeError
        assert _outcome(_read, data) == _outcome(_reference, data)


def test_laid_out_matrices_of_the_wrong_shape_fail_as_before():
    # read from bytes, each fails in load_path_file's shape checks, with their messages
    text = _simulated(True, 4, 5, [0, 0, 1], False, True)
    row = "[\n        1,\n        0,\n        0,\n        0\n      ]"
    for other, error in (
        (text.replace(row, row.replace(",\n        0\n", "\n"), 1), "matrix rows must each hold 4 integers"),
        (text.replace(row + ",\n      ", "", 1), "matrices must have one row per symbol (4)"),
        (text.replace(row, row + ",\n      " + row, 1), "matrices must have one row per symbol (4)"),
    ):
        assert type(_read(other)["matrices"][0]) is tuple
        assert _outcome(_loaded, _read, other)[1] == error
        assert _outcome(_loaded, _read, other) == _outcome(_loaded, _reference, other)


_ENTRY_TOKENS = ["0.0", "-0", "00", "true", '"0"', "1e0", "1" + "0" * 40, "9" * 5000, "]", "[", ","]
_INSERTED = ["]", "[", ",", " ", "\n"]
_ROW_SEP = ",\n      "


def _edit(data, text, lo, hi):
    """``text`` with one edit drawn inside ``text[lo:hi]``, and the new ``hi``."""
    kind = data.draw(st.sampled_from(["entry", "insert", "drop separator", "double separator"]))
    if kind == "entry":
        entries = [m.span() for m in re.finditer(r"-?\d+", text[lo:hi])]
        a, b = data.draw(st.sampled_from(entries)) if entries else (0, 0)
        token = data.draw(st.sampled_from(_ENTRY_TOKENS))
        return text[:lo + a] + token + text[lo + b:], hi + len(token) - (b - a)
    if kind == "insert":
        at = data.draw(st.integers(lo, hi))
        token = data.draw(st.sampled_from(_INSERTED))
        return text[:at] + token + text[at:], hi + len(token)
    seps = [m.start() for m in re.finditer(re.escape(_ROW_SEP + "["), text[lo:hi])]
    if not seps:
        return text, hi
    at = lo + data.draw(st.sampled_from(seps))
    if kind == "drop separator":
        return text[:at] + text[at + len(_ROW_SEP):], hi - len(_ROW_SEP)
    return text[:at] + _ROW_SEP + text[at:], hi + len(_ROW_SEP)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pair=st.booleans(),
    n=st.integers(3, 7),
    seed=st.integers(0, 2**32 - 1),
    types=st.lists(st.integers(0, 1), min_size=1, max_size=12),
    grouped=st.booleans(),
    with_start=st.booleans(),
    data=st.data(),
)
def test_edited_matrices_read_as_json_loads_reads_them(pair, n, seed, types, grouped, with_start, data):
    text = _simulated(pair, n, seed, types, grouped, with_start)
    lo = text.index('"matrices": ') + len('"matrices": ')
    hi = json.JSONDecoder().raw_decode(text, lo)[1]
    for _ in range(data.draw(st.integers(1, 3))):
        text, hi = _edit(data, text, lo, hi)
    assert _outcome(_loaded, _read, text) == _outcome(_loaded, _reference, text)


_RECORD_SEP = "\n    },\n    {\n      "
_FIELD = re.compile(r'\n      "(?:k|losers|power|type|winner)": ')
_RECORD_VALUE = re.compile(r"(?<=: )(?:-?\d+|null)|(?<=\n        )-?\d+")


def _edit_record(data, text, lo, hi):
    """``text`` with one edit drawn inside the records of ``text[lo:hi]``, and the new ``hi``."""
    def at(pattern):  # the span of one match of ``pattern`` in the records, drawn, else None
        spans = [(lo + m.start(), lo + m.end()) for m in pattern.finditer(text[lo:hi])]
        return data.draw(st.sampled_from(spans)) if spans else None

    def replaced(a, b, new):
        return text[:a] + new + text[b:], hi + len(new) - (b - a)

    kind = data.draw(st.sampled_from(["value", "repeat key", "drop separator", "merge records", "double separator",
                                      "span records", "stray"]))
    if kind == "value":
        span = at(_RECORD_VALUE)
        return replaced(*span, data.draw(st.sampled_from(["1.0", "true", '"1"', "NaN"]))) if span else (text, hi)
    if kind == "repeat key":
        span = at(_FIELD)
        key = data.draw(st.sampled_from(["k", "losers", "power", "type", "winner"]))
        value = data.draw(st.sampled_from(["1", "2", "null", "[1]", "[]"]))
        return replaced(span[1], span[1], f'"{key}": {value},\n      ') if span else (text, hi)
    if kind == "stray":
        return replaced(*(data.draw(st.integers(lo, hi)),) * 2, data.draw(st.sampled_from(["]", "}"])))
    span = at(re.compile(re.escape(_RECORD_SEP)))
    if span is None:
        return text, hi
    if kind == "drop separator":
        return replaced(*span, "")
    if kind == "merge records":  # two records' fields as one record's, later keys winning
        return replaced(*span, ",\n      ")
    if kind == "double separator":
        return replaced(*span, _RECORD_SEP * 2)
    # a value of one record that opens an array of objects, closed in a later record
    opened = at(_RECORD_VALUE)
    if opened is None or opened[0] > span[0]:
        return text, hi
    closed = span[1] + text[span[1]:hi].find("\n    }")  # the end of the record after the separator
    text, hi = replaced(closed, closed, "}]")
    return replaced(opened[0], opened[0], '[{"v": ')


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sharpness=st.booleans(),
    pair=st.booleans(),
    n=st.integers(3, 9),
    seed=st.integers(0, 2**32 - 1),
    types=st.lists(st.integers(0, 1), min_size=1, max_size=12),
    grouped=st.booleans(),
    data=st.data(),
)
def test_edited_records_read_as_json_loads_reads_them(sharpness, pair, n, seed, types, grouped, data):
    # a simulate file has its records read from bytes once its matrices are gone
    with_matrices = data.draw(st.booleans())
    text = _sharpness(n + 5) if sharpness else _simulated(pair, n, seed, types, grouped, True, with_matrices)
    lo = text.index('"moves": ') + len('"moves": ')
    hi = json.JSONDecoder().raw_decode(text, lo)[1]
    for _ in range(data.draw(st.integers(1, 3))):
        text, hi = _edit_record(data, text, lo, hi)
    assert _outcome(_loaded, _read, text) == _outcome(_loaded, _reference, text)
