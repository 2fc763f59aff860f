"""What each command loads, the lazy package, and the value classes."""
from __future__ import annotations

import copy
import json
import pickle
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ietrewind
from ietrewind import cli
from ietrewind.core import Frozen, Pair, Permutation, Value, make_pair
from ietrewind.oracle import RealizabilityReport
from ietrewind.rauzy import RauzyPath, ZorichMove, simulate_pair
from ietrewind.recovery import PartiallyOrderedPair
from ietrewind.sharpness import PivotWitness, build_ambiguous_path

_ROOT = Path(__file__).resolve().parent.parent
_PAIR_START = {"alphabet": [1, 2, 3, 4, 5], "p0": [1, 2, 3, 4, 5], "p1": [5, 4, 3, 2, 1]}

# one command in a fresh interpreter, then the modules it left loaded, one a line
_PROBE = """
import sys
from ietrewind.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory):
    work = tmp_path_factory.mktemp("imports")
    start, path = work / "start.json", work / "pair.json"
    start.write_text(json.dumps(_PAIR_START))
    cli.main(["simulate", "--start", str(start), "--seed", "1", "--length", "20", "--out", str(path)])
    return start, path


def _loaded(tmp_path, *argv) -> set:
    listing, out = tmp_path / "modules.txt", tmp_path / "out.json"
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(listing), *argv, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text().split())


def test_each_command_loads_only_what_it_runs(tmp_path, pair_file):
    start, path = map(str, pair_file)
    runs = {
        "simulate": _loaded(tmp_path, "simulate", "--start", start, "--seed", "2", "--length", "30"),
        "recover": _loaded(tmp_path, "recover", path),
        "verify": _loaded(tmp_path, "verify", path),
        "verify --oracle": _loaded(tmp_path, "verify", "--oracle", path),
        "sharpness": _loaded(tmp_path, "sharpness", "--n", "8"),
    }
    package = {name: {m.split(".")[1] for m in loaded if m.startswith("ietrewind.")} for name, loaded in runs.items()}
    assert package["simulate"] == {"cli", "core", "matrices", "rauzy", "zorich"}
    for name in ("recover", "verify"):
        assert package[name] == package["simulate"] | {"recovery"}, name
    assert package["verify --oracle"] == package["verify"] | {"oracle"}
    assert package["sharpness"] == package["verify --oracle"] | {"sharpness"}
    for name, loaded in runs.items():
        assert "dataclasses" not in loaded and "ietrewind.lifting" not in loaded, name


def test_the_tracer_times_the_names_bound_on_first_use(tmp_path, pair_file):
    # the benchmark's tracer wraps cli names that a command binds only when it runs
    _, path = pair_file
    expected = {
        ("recover", str(path)): ("recovery.recover", "recovery.rewind", "recovery.enumerate"),
        ("verify", "--oracle", str(path)): ("recovery.recover", "recovery.rewind", "recovery.enumerate"),
        ("sharpness", "--n", "8"): ("sharpness.build", "oracle.replay", "recovery.rewind", "recovery.enumerate"),
    }
    spans_file = tmp_path / "spans.json"
    for argv, names in expected.items():
        proc = subprocess.run(
            [sys.executable, str(_ROOT / "perfbench" / "trace_child.py"), str(spans_file), *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        spans = json.loads(spans_file.read_text())["spans"]
        for name in names:
            assert spans[name]["calls"] > 0, (argv, name)


def test_a_bare_import_loads_no_submodule():
    probe = "import sys, ietrewind; print(sorted(m for m in sys.modules if m.startswith('ietrewind.')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_each_public_name_is_its_submodules_object():
    for name in ietrewind.__all__:
        home = import_module(f"ietrewind.{ietrewind._HOME[name]}")
        assert getattr(ietrewind, name) is getattr(home, name), name
    # a re-export is the same object as the definition
    assert ietrewind.BoundExceeded is import_module("ietrewind.recovery").BoundExceeded
    assert ietrewind.ZorichMove is import_module("ietrewind.zorich").ZorichMove


def test_dir_lists_every_public_name_and_an_unknown_name_raises():
    assert set(ietrewind.__all__) <= set(dir(ietrewind))
    with pytest.raises(AttributeError):
        ietrewind.no_such_name  # noqa: B018
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018


def _values():
    """Two equal but distinct instances, and one unequal one, of each value class."""
    pair = make_pair((1, 3, 2), (2, 3, 1))
    q = (frozenset({1, 2}), frozenset({3}))
    pop = PartiallyOrderedPair((1, 2, 3), q, q[::-1])
    path = simulate_pair(pair, [0, 1])
    witness = PivotWitness(pop, (3, 1))
    result = build_ambiguous_path(8)
    return [
        (Pair((1, 2, 3), (1, 3, 2), (2, 3, 1)), pair, pair.inverse()),
        (Permutation((2, 1)), Permutation(tuple([2, 1])), Permutation((1, 2))),
        (ZorichMove(1, frozenset({2}), 1, frozenset({2})), ZorichMove(1, frozenset([2]), 1, frozenset([2])),
         ZorichMove(2, frozenset({1}), 1, frozenset({1}))),
        (path, RauzyPath(*[getattr(path, name) for name in RauzyPath.__slots__[:-1]], grouping=path.grouping),
         RauzyPath(path.flavor, path.index, path.start, path.moves, path.types, grouping=(1, 1))),
        (pop, PartiallyOrderedPair((1, 2, 3), tuple(q), (q[1], q[0])), PartiallyOrderedPair((1, 2, 3), q, q)),
        (RealizabilityReport(2, ((pair, (0, 1)),)), RealizabilityReport(2, ((pair, (0, 1)),)),
         RealizabilityReport(3, ())),
        (witness, PivotWitness(witness.pop, tuple(witness.pivots)), PivotWitness(witness.pop, witness.pivots[::-1])),
        (result, build_ambiguous_path(8), build_ambiguous_path(9)),
    ]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__ if name != "__weakref__")


def _with_field(value, name, new):
    """A copy of ``value`` whose field ``name`` holds ``new``, built past ``__init__``."""
    copied = object.__new__(type(value))
    for slot in type(value).__slots__:
        if slot != "__weakref__":
            object.__setattr__(copied, slot, new if slot == name else getattr(value, slot))
    return copied


def test_the_value_list_covers_every_value_class():
    for info in pkgutil.iter_modules(ietrewind.__path__):
        import_module(f"ietrewind.{info.name}")
    found, todo = set(), [Value]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo.extend(cls.__subclasses__())
    found = {cls for cls in found if cls.__module__.startswith("ietrewind.")} - {Value, Frozen}
    assert found == {type(a) for a, _, _ in _values()} | {cli._Records}


def test_value_classes_compare_and_hash_by_their_fields():
    for a, b, other in _values():
        assert a is not b and a == b and not a != b, type(a)
        assert hash(a) == hash(b) and len({a, b, other}) == 2, type(a)
        assert a != other and not a == other, type(a)
        assert a != _fields(a)
        assert hash(a) == hash(_fields(a)), type(a)  # the hash values, and so set and dict orders, of before
    records = cli._Records((), (), {})
    assert records == cli._Records((), (), {}) and records != cli._Records((), (0,), {})


def test_replacing_any_one_field_makes_a_value_unequal():
    for a in [a for a, _, _ in _values()] + [cli._Records((), (), {})]:
        names = [name for name in type(a).__slots__ if name != "__weakref__"]
        assert _with_field(a, names[0], getattr(a, names[0])) == a, type(a)
        for name in names:
            assert _with_field(a, name, object()) != a, (type(a), name)


def test_frozen_value_classes_reject_assignment():
    values = [a for a, _, _ in _values()] + [cli._Records((), (), {})]
    for value in values:
        assert copy.copy(value) == value == pickle.loads(pickle.dumps(value)), type(value)
    for value in (value for value in values if type(value) is not ZorichMove):
        name = type(value).__slots__[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert getattr(value, name) is before


def test_value_classes_keep_the_field_repr():
    assert repr(Pair((1, 2), (1, 2), (2, 1))) == "Pair(alphabet=(1, 2), row0=(1, 2), row1=(2, 1))"
    assert repr(Permutation((2, 1))) == "Permutation(image=(2, 1))"
    assert repr(ZorichMove(1, frozenset({2}), 1, frozenset({2}))) == (
        "ZorichMove(winner=1, losers=frozenset({2}), max_count=1, losers_max=frozenset({2}), losers_min=frozenset())")
    assert repr(RealizabilityReport(0, ())) == "RealizabilityReport(candidates_checked=0, realizers=())"
    path = RauzyPath("pair", (1, 2), None, (), ())
    assert repr(path) == "RauzyPath(flavor='pair', index=(1, 2), start=None, moves=(), types=(), grouping=None)"
    result = build_ambiguous_path(8)
    assert repr(result).startswith("SharpnessResult(n=8, depth=2, moves=(ZorichMove(winner=")
    assert repr(result).endswith(f"unresolved={result.unresolved})")


def test_rauzy_path_takes_grouping_by_keyword_only():
    path = RauzyPath("pair", (1, 2), None, (), (), grouping=())
    assert copy.copy(path) == path == pickle.loads(pickle.dumps(path)) and path.grouping == ()
    with pytest.raises(TypeError):  # a sixth positional field, as ``states`` once was, is refused
        RauzyPath("pair", (1, 2), None, (), (), ())
