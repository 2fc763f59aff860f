"""Mutated path files end with exit 0, 2, 3 or 4 and one JSON body.

Each example takes a valid path file (a golden start's walk, a simulated
pair or permutation record, plain, records-only or grouped, or a sharpness
file), changes one to three places in its JSON tree, and runs ``recover``,
``recover --trace``, ``verify`` and ``verify --oracle`` on it in-process, once
written compact and once in the layout that the commands write, which the
reader takes from its text.  A traceback, an exit code outside {0, 2, 3, 4},
an output that is not one JSON value, two layouts that give different exit
codes or bytes, or a run past the deadline fails the example.

Integers drawn into a file stay small or pass ``sys.maxsize``: a size or
count in between is read, and may take memory in proportion to its value.
"""
from __future__ import annotations

import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ietrewind.cli import main

_PAIR_6 = {"alphabet": [1, 2, 3, 4, 5, 6], "p0": [1, 2, 3, 4, 5, 6], "p1": [4, 6, 2, 5, 1, 3]}
_PERM_6 = {"n": 6, "image": [3, 6, 1, 5, 2, 4]}
_PAIR_8 = {"alphabet": list("abcdefgh"), "p0": list("abcdefgh"), "p1": list("gcahedbf")}

_COMMANDS = (("recover",), ("recover", "--trace"), ("verify",), ("verify", "--oracle"))


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """The valid path files the mutations start from, as parsed JSON."""
    work = tmp_path_factory.mktemp("fuzz-base")
    files = []

    def run(name, *argv):
        out = work / f"{name}.json"
        assert main([*argv, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        files.append(obj)
        if "matrices" in obj and "grouping" not in obj:
            files.append({key: value for key, value in obj.items() if key != "matrices"})

    for name, obj in (("pair-6", _PAIR_6), ("perm-6", _PERM_6), ("pair-8", _PAIR_8)):
        start = work / f"{name}-start.json"
        start.write_text(json.dumps(obj))
        run(f"walk-{name}", "simulate", "--start", str(start), "--seed", "2", "--until-c-complete", "2")
        run(f"plain-{name}", "simulate", "--start", str(start), "--script", "0,1,1,0,0,0,1,0")
        run(f"grouped-{name}", "simulate", "--start", str(start), "--script", "0x3,1x4,0x2,group(3,4,2)")
    run("sharpness-8", "sharpness", "--n", "8")
    return work, files


_SCALARS = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([2**63, 10**19, True, False, None, 1.0, 0.5, "", "a", "1"]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
_KEYS = ["start", "grouping", "k", "type", "power", "n", "losers", "winner", "x"]


def _mutate(data, obj):
    """One change at a place drawn from the tree: an integer moved by one, a
    value replaced, a key or element removed, an element repeated or swapped
    with another, or a value put in a new key."""
    parent, key = None, None
    node = obj
    while isinstance(node, (list, dict)) and node and data.draw(st.integers(0, 3)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    action = data.draw(st.sampled_from(["nudge", "replace", "remove", "repeat", "swap", "add"]))
    if parent is None or action == "add":
        target = node if isinstance(node, dict) else obj
        target[data.draw(st.sampled_from(_KEYS))] = data.draw(_VALUES)
    elif action == "nudge" and type(node) is int:
        parent[key] = node + data.draw(st.sampled_from([-1, 1]))
    elif action in ("nudge", "replace"):
        parent[key] = data.draw(_VALUES)
    elif action == "remove":
        del parent[key]
    elif isinstance(parent, dict):
        parent[key] = [node, node]
    elif action == "repeat":
        parent.insert(key, node)
    else:
        other = data.draw(st.integers(0, len(parent) - 1))
        parent[key], parent[other] = parent[other], node


@given(data=st.data())
@settings(
    max_examples=150,
    deadline=timedelta(seconds=20),
    suppress_health_check=[HealthCheck.too_slow],
)
def test_mutated_path_files_end_with_an_exit_code_and_one_json_body(base_files, data):
    work, files = base_files
    obj = json.loads(json.dumps(data.draw(st.sampled_from(files))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, obj)
    compact, laid_out = work / "compact.json", work / "laid-out.json"
    compact.write_text(json.dumps(obj))
    # the commands' layout, whose matrices are read from their text; the keys
    # keep one order in both, since an error detail may show an object's repr
    laid_out.write_text(json.dumps(obj, indent=2))
    for command in _COMMANDS:
        bodies = []
        for path in (compact, laid_out):
            out = work / "out.json"
            out.unlink(missing_ok=True)
            code = main([command[0], str(path), *command[1:], "--out", str(out)])
            assert code in (0, 2, 3, 4), command
            body = json.loads(out.read_text())
            assert isinstance(body, dict) and (code in (0, 3)) == ("error" not in body), command
            bodies.append((code, out.read_bytes()))
        assert bodies[0] == bodies[1], command
