"""Brute-force and forward-replay cross-checks for the reverse algorithms."""
from __future__ import annotations

import ast
import random
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ietrewind import oracle
from ietrewind.cli import load_path_file
from ietrewind.core import Pair, Permutation, inverse, is_irreducible_pair, is_irreducible_perm, make_pair
from ietrewind.matrices import winner_row_matrix
from ietrewind.oracle import (
    brute_force_initial_pairs,
    brute_force_initial_perms,
    forward_initial_pairs,
    forward_initial_perms,
    forward_simulate,
)
from ietrewind.rauzy import simulate_pair, simulate_perm, type1_matrix, walk_until_complete
from ietrewind.zorich import ZorichMove, accelerate, extract_move
from ietrewind.recovery import (
    BoundExceeded,
    decode_perm_matrices,
    enumerate_agreeing_perms,
    enumerate_starting,
    recover_pair,
    recover_perm,
    recover_perm_moves,
)

_ANCHOR = make_pair((1, 2, 3, 4, 5), (5, 4, 3, 2, 1))

_LETTER_MOVES = [
    ("E", {"A", "B"}),
    ("C", {"E"}),
    ("D", {"C"}),
    ("C", {"D"}),
    ("E", {"C", "D"}),
    ("A", {"C", "D", "E"}),
    ("B", {"A"}),
]

_A1 = (
    (1, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0),
)
_A2 = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, 0, 0, 0, 1),
)
_A3 = (
    (1, 1, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
)
_A4 = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, 0, 1, 0, 1),
)
_A5 = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 3),
    (0, 0, 0, 0, 1),
)
_A6 = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, 0, 1, 1, 1),
)


def test_forward_simulate_unit_and_grouped():
    unit = [(1, {5}), (1, {4}), (1, {3}), (1, {2}), (1, {5}), (1, {4})]
    assert forward_simulate(_ANCHOR, unit, [1] * 6)
    grouped = [(1, {2, 3, 4, 5}), (1, {4, 5})]
    assert forward_simulate(_ANCHOR, grouped, [1, 1])
    # a record cleaned once is taken as it is, as sharpness hands it to both replays
    for moves, types in ((unit, [1] * 6), (grouped, [1, 1])):
        cleaned = oracle._clean_moves(moves)
        assert oracle._clean_moves(cleaned) is cleaned
        assert forward_simulate(_ANCHOR, cleaned, types)


def test_forward_simulate_rejections():
    assert not forward_simulate(_ANCHOR, [(2, {5})], [1])  # wrong winner
    assert not forward_simulate(_ANCHOR, [(1, {3})], [1])  # wrong loser set
    assert not forward_simulate(_ANCHOR, oracle._clean_moves([(1, {3})]), [1])
    clash = make_pair((1, 2, 3), (2, 1, 3))  # both rows end in 3
    assert not forward_simulate(clash, [(3, {1})], [0])
    with pytest.raises(ValueError):
        forward_simulate(_ANCHOR, [(1, {5})], [1, 1])
    with pytest.raises(ValueError):
        forward_simulate(_ANCHOR, [(1, {5})], [2])


def test_letter_record_brute_force_matches_enumeration():
    alphabet = ("A", "B", "C", "D", "E")
    report = brute_force_initial_pairs(_LETTER_MOVES, alphabet)
    pop, types = recover_pair(_LETTER_MOVES)
    expected = enumerate_starting(pop)
    assert sorted(p.row0 for p, _ in report.realizers) == sorted(p.row0 for p in expected)
    assert {p for p, _ in report.realizers} == set(expected)
    by_pair = {p: ts for p, ts in report.realizers}
    settled = pop.settled_pair()
    assert by_pair[settled] == types
    assert by_pair[inverse(settled)] == tuple(1 - t for t in types)


def _unpruned_pair_oracle(moves, alphabet):
    """Every irreducible pair replayed under both type seeds, as the brute
    force did without its first-winner filter: the reference for the pruned
    scan.  Returns (candidates checked, realizers)."""
    winners = [m.winner for m in moves]
    seeds = []
    for last in (0, 1):
        types = [last]
        for j in range(len(winners) - 2, -1, -1):
            types.append(types[-1] if winners[j] == winners[j + 1] else 1 - types[-1])
        seeds.append(tuple(reversed(types)))
    checked, found = 0, []
    for r0 in permutations(alphabet):
        for r1 in permutations(alphabet):
            cand = Pair(alphabet, r0, r1)
            if not is_irreducible_pair(cand):
                continue
            for types in seeds:
                checked += 1
                if forward_simulate(cand, moves, types):
                    found.append((cand, types))
    return checked, tuple(found)


def test_brute_force_parallel_and_unpruned_agree():
    path = simulate_pair(make_pair((1, 2, 3, 4), (4, 3, 2, 1)), [0, 1, 0, 0])
    base = brute_force_initial_pairs(path.moves, (1, 2, 3, 4))
    checked, realizers = _unpruned_pair_oracle(path.moves, (1, 2, 3, 4))
    assert base.realizers == realizers
    assert checked > base.candidates_checked


def test_process_pool_is_imported_only_for_parallel_runs():
    # the command line never pays for multiprocessing: every oracle runs in one process
    probe = "import sys, ietrewind.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_brute_force_pair_bound():
    with pytest.raises(BoundExceeded):
        brute_force_initial_pairs([(1, {2})], tuple(range(1, 8)))
    with pytest.raises(ValueError):
        brute_force_initial_pairs([], (1, 2, 3))


def test_perm_brute_force_matches_enumeration():
    got = brute_force_initial_perms([_A1, _A2, _A3, _A4], 5)
    blocks = recover_perm([_A1, _A2, _A3, _A4])
    assert got == enumerate_agreeing_perms(blocks)
    assert len(got) == 6


def test_perm_brute_force_settles_unique():
    got = brute_force_initial_perms([_A1, _A2, _A3, _A4, _A5, _A6], 5)
    assert got == [Permutation((5, 2, 1, 4, 3))]


def test_perm_brute_force_empty_record():
    got = brute_force_initial_perms([], 4)
    everyone = [
        Permutation(img)
        for img in permutations(range(1, 5))
        if is_irreducible_perm(Permutation(img))
    ]
    assert got == everyone
    assert len(got) == 13


def test_perm_brute_force_bounds():
    with pytest.raises(BoundExceeded):
        brute_force_initial_perms([], 9)
    with pytest.raises(ValueError):
        brute_force_initial_perms([((1, 0), (0, 1))], 3)


@st.composite
def _short_path(draw):
    n = draw(st.integers(4, 5))
    row1 = tuple(draw(st.permutations(tuple(range(1, n + 1)))))
    types = draw(st.lists(st.integers(0, 1), min_size=2, max_size=6))
    return make_pair(tuple(range(1, n + 1)), row1), types


@given(_short_path())
@settings(deadline=None, max_examples=25)
def test_brute_force_agrees_with_reverse_algorithm(case):
    start, types = case
    assume(is_irreducible_pair(start))
    path = simulate_pair(start, types)
    report = brute_force_initial_pairs(path.moves, start.alphabet)
    found = {p for p, _ in report.realizers}
    assert start in found
    pop, _ = recover_pair(path.moves, alphabet=start.alphabet)
    assert found == set(enumerate_starting(pop))
    for cand, ts in report.realizers:
        assert forward_simulate(cand, path.moves, ts)


# --- the linked-row stepper against list rows -------------------------------

def _list_replay(pair, seq, types):
    """The oracle's stepper on Python lists, each loser moved with pop, index
    and insert: the reference for the linked rows of ``oracle._replay``."""
    rows = [list(pair.row0), list(pair.row1)]
    for (winner, losers), t in zip(seq, types):
        if t not in (0, 1):
            raise ValueError("types must be 0 or 1")
        if rows[t][-1] != winner:
            return False
        fallen = set()
        for _ in range(len(losers)):
            if rows[0][-1] == rows[1][-1]:
                return False
            loser = rows[1 - t].pop()
            rows[1 - t].insert(rows[1 - t].index(winner) + 1, loser)
            fallen.add(loser)
        if fallen != losers:
            return False
    return True


@st.composite
def _replay_cases(draw):
    n = draw(st.integers(3, 9))
    alphabet = tuple(range(1, n + 1))
    start = make_pair(draw(st.permutations(alphabet)), draw(st.permutations(alphabet)), alphabet)
    assume(is_irreducible_pair(start))
    walk = draw(st.lists(st.integers(0, 1), min_size=1, max_size=30))
    # one move per run of equal types, a same-winner cycle of several losers,
    # or one per unit move as a simulated or sharpness record has them
    merge = draw(st.booleans())
    seq, types = [], []
    for m, t in zip(simulate_pair(start, walk).moves, walk):
        if merge and types and types[-1] == t and seq[-1][0] == m.winner:
            seq[-1] = (m.winner, seq[-1][1] | m.losers)
        else:
            seq.append((m.winner, frozenset(m.losers)))
            types.append(t)
    j = draw(st.integers(0, len(seq) - 1))
    winner, losers = seq[j]
    edit = draw(st.sampled_from(("none", "swap", "drop")))
    if edit == "swap":  # one loser for another symbol, maybe the winner itself
        losers = (losers - {draw(st.sampled_from(sorted(losers)))}) | {draw(st.sampled_from(alphabet))}
    elif edit == "drop" and len(losers) > 1:
        losers = losers - {draw(st.sampled_from(sorted(losers)))}
    seq[j] = (winner, losers)
    if draw(st.booleans()):  # random types, now and then one outside 0/1
        types = draw(st.lists(st.sampled_from((0, 1) * 8 + (2,)), min_size=len(seq), max_size=len(seq)))
    return start, seq, types


def _verdict(replay, start, seq, types):
    try:
        return replay(start, seq, types)
    except ValueError:
        return ValueError


# Both rows of a reducible start may end in the winner: the record fails
# there, on the one-loser path and on the other, even where it names the winner.
_EQUAL_ENDS = Pair((1, 2, 3), (1, 2, 3), (2, 1, 3))


@given(_replay_cases())
@example((_EQUAL_ENDS, [(3, frozenset({3}))], [0]))
@example((_EQUAL_ENDS, [(3, frozenset({1, 3}))], [0]))
@settings(deadline=None, max_examples=300)
def test_linked_rows_replay_as_list_rows(case):
    start, seq, types = case
    assert _verdict(oracle._replay, start, seq, types) == _verdict(_list_replay, start, seq, types)


# --- the forward pair oracle ------------------------------------------------

def _runs(keys):
    """Lengths of the maximal runs of equal keys."""
    runs = []
    for i, key in enumerate(keys):
        if i and key == keys[i - 1]:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


def _pair_units(path, grouped):
    """The path's unit moves, read back from same-winner blocks when grouped."""
    if not grouped:
        return [(m.winner, m.losers) for m in path.moves]
    zpath = accelerate(path, _runs([m.winner for m in path.moves]))
    return [unit for mat in zpath.matrices for unit in extract_move(mat, path.index).units()]


@st.composite
def _pair_records(draw):
    n = draw(st.sampled_from((3, 4, 5) * 2 + (6,)))  # the brute force takes about 1 s at n = 6
    alphabet = tuple(range(1, n + 1))
    start = make_pair(draw(st.permutations(alphabet)), draw(st.permutations(alphabet)), alphabet)
    assume(is_irreducible_pair(start))
    types = draw(st.lists(st.integers(0, 1), min_size=1, max_size=12))
    units = _pair_units(simulate_pair(start, types), draw(st.booleans()))
    if draw(st.booleans()):  # perturb one unit: usually no start replays it any more
        j = draw(st.integers(0, len(units) - 1))
        winner = draw(st.sampled_from(alphabet))
        losers = draw(st.frozensets(st.sampled_from(alphabet), min_size=1, max_size=n - 1))
        units[j] = (winner, losers)
    return alphabet, units


@given(_pair_records())
@settings(deadline=None, max_examples=25)
def test_forward_pair_oracle_matches_brute_force(case):
    alphabet, units = case
    forward = forward_initial_pairs(units, alphabet)
    assert forward.realizers == brute_force_initial_pairs(units, alphabet).realizers
    for cand, types in forward.realizers:
        assert forward_simulate(cand, units, types)


def test_forward_pair_oracle_matches_enumeration_past_the_brute_force_cap():
    rng = random.Random(2026)
    for trial in range(24):
        n = 7 + trial % 4
        alphabet = tuple(range(1, n + 1))
        while True:
            row1 = rng.sample(alphabet, n)
            start = make_pair(alphabet, row1, alphabet)
            if is_irreducible_pair(start):
                break
        types, _ = walk_until_complete(start, rng, 2)
        units = _pair_units(simulate_pair(start, types), trial % 2 == 1)
        pop, _ = recover_pair(units, alphabet=alphabet)
        expected = enumerate_starting(pop)
        report = forward_initial_pairs(units, alphabet)
        assert {p for p, _ in report.realizers} == set(expected), (n, types)
        assert len(report.realizers) == len(expected)
        assert start in expected


def test_forward_pair_oracle_finds_the_eight_symbol_starts():
    moves = [(8, {1, 2, 3, 4, 6}), (7, {8}), (6, {7}), (5, {6}), (4, {5}), (3, {4}), (2, {3}), (1, {2})]
    begin = time.monotonic()
    report = forward_initial_pairs(moves, tuple(range(1, 9)))
    assert time.monotonic() - begin < 1.0
    assert len(report.realizers) == 288
    pop, types = recover_pair(moves)
    assert {p for p, _ in report.realizers} == set(enumerate_starting(pop))
    flipped = tuple(1 - t for t in types)
    assert {ts for _, ts in report.realizers} == {types, flipped}


def test_forward_pair_oracle_bounds_its_work(monkeypatch):
    alphabet = tuple(range(1, 11))
    begin = time.monotonic()
    with pytest.raises(BoundExceeded, match="row pairs"):
        forward_initial_pairs([(10, {9})], alphabet)  # both pools keep about nine heads
    # nine losers drawn from a pool of singletons open 9! orders of the loser row
    monkeypatch.setattr(oracle, "FORWARD_LIMIT", 1000)
    with pytest.raises(BoundExceeded, match="branches"):
        forward_initial_pairs([(10, frozenset(range(1, 10)))], alphabet)
    assert time.monotonic() - begin < 2.0
    with pytest.raises(ValueError):
        forward_initial_pairs([], (1, 2, 3))
    # a winner among its losers, or a symbol outside the alphabet, replays from nowhere
    for bad in ([(1, {1, 2})], [(1, {9})]):
        assert forward_initial_pairs(bad, (1, 2, 3, 4)).realizers == ()


def test_oracle_imports_only_core_and_the_bound_exception():
    # the oracle must stay independent of the code it checks
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ietrewind")):
            package.add((node.module, tuple(alias.name for alias in node.names)))
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("ietrewind") for alias in node.names)
    names = {module: imported for module, imported in package}
    assert set(names) == {"core", "recovery"}, package
    assert names["recovery"] == ("BoundExceeded",)


# --- the pruned permutation oracle --------------------------------------------

def _unpruned_perm_oracle(matrices, n):
    """Every irreducible start replayed through the whole record, as the oracle
    did before it read the first matrix: the reference for the pruned scan."""
    def unit_rows(mat):
        return all(mat[i][j] == (1 if i == j else 0) for i in range(n - 1) for j in range(n))

    def realizes(image, mats):
        for target in mats:
            total = sum(sum(row) for row in target)
            type0 = unit_rows(target)
            prod = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            while True:
                k = image.index(n) + 1
                if type0:
                    last = image[-1]
                    image = tuple(v if v <= last else (last + 1 if v == n else v + 1) for v in image)
                    for row in prod:
                        row[k - 1] += row[n - 1]
                else:
                    image = image[:k] + (image[-1],) + image[k:-1]
                    for row in prod:
                        row[k:] = [row[k - 1] + row[n - 1]] + row[k:n - 1]
                if tuple(tuple(row) for row in prod) == target:
                    break
                if sum(sum(row) for row in prod) >= total:
                    return False
        return True

    mats = [tuple(map(tuple, m)) for m in matrices]
    return [
        Permutation(image)
        for image in permutations(range(1, n + 1))
        if is_irreducible_perm(Permutation(image)) and realizes(image, mats)
    ]


def test_pruned_perm_oracle_matches_the_unpruned_replay():
    rng = random.Random(77)
    for trial in range(16):
        n = 4 + trial % 4
        image = tuple(rng.sample(range(1, n + 1), n))
        while not is_irreducible_perm(Permutation(image)):
            image = tuple(rng.sample(range(1, n + 1), n))
        types = [trial // 4 % 2] + [rng.randint(0, 1) for _ in range(rng.randint(0, 3 * n))]
        path = simulate_perm(Permutation(image), types)
        mats = path.matrices if trial % 2 else accelerate(path, _runs(types)).matrices
        if trial % 3 == 2:  # a record no start plays: a later matrix from another walk
            mats = mats + simulate_perm(Permutation(image), [1 - types[0]]).matrices
        got = brute_force_initial_perms(mats, n)
        assert got == _unpruned_perm_oracle(mats, n), (image, types)
        if trial % 3 != 2:
            assert Permutation(image) in got


# --- the forward permutation oracle -----------------------------------------

def _perm_file_entries(mats, n, form):
    """The entries ``verify --oracle`` hands the oracle: decoded from the
    matrices, or read back from the unit records a file without them holds."""
    entries, _ = decode_perm_matrices(mats)
    if form != "records":
        return entries
    records = [
        {"winner": n, "losers": sorted(m.losers), "type": 0, "power": m.steps} if isinstance(m, ZorichMove)
        else {"winner": m[0], "losers": [n], "type": 1, "k": m[0], "power": m[1]}
        for m in entries
    ]
    return load_path_file({"version": 1, "flavor": "permutation", "n": n, "moves": records})["moves"]


@st.composite
def _perm_records(draw):
    n = draw(st.integers(3, 7))
    start = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    assume(is_irreducible_perm(start))
    types = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3 * n))
    path = simulate_perm(start, types)
    form = draw(st.sampled_from(("ungrouped", "grouped", "records")))
    mats = list(accelerate(path, _runs(types)).matrices if form == "grouped" else path.matrices)
    change = draw(st.sampled_from((None, "tail", "replace")))
    if change == "tail":  # the record goes on from a state it never reached
        other = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
        assume(is_irreducible_perm(other))
        mats += simulate_perm(other, draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))).matrices
    elif change == "replace":  # one matrix swapped for a unit type-0 move or a type-1 power
        j = draw(st.integers(0, len(mats) - 1))
        if draw(st.booleans()):
            mats[j] = type1_matrix(n, draw(st.integers(1, n - 1)), draw(st.integers(1, 2 * n)))
        else:
            mats[j] = winner_row_matrix(n, n - 1, dict.fromkeys(draw(st.sets(st.integers(0, n - 2), min_size=1)), 1))
    return n, form, start, change, mats


@given(_perm_records())
@settings(deadline=None, max_examples=80)
def test_forward_perm_oracle_matches_brute_force(case):
    # the brute force reads the raw matrices, so the decoders stay covered
    n, form, start, change, mats = case
    found = forward_initial_perms(_perm_file_entries(mats, n, form), n)
    assert found == brute_force_initial_perms(mats, n)
    if change is None:
        assert start in found


def test_forward_perm_oracle_matches_enumeration_past_the_brute_force_cap():
    rng = random.Random(912)
    sizes = set()
    for trial in range(16):
        n = 9 + trial % 4
        image = tuple(rng.sample(range(1, n + 1), n))
        while not is_irreducible_perm(Permutation(image)):
            image = tuple(rng.sample(range(1, n + 1), n))
        types, _ = walk_until_complete(Permutation(image), rng, 2)
        if trial % 2:  # a quarter of the walk leaves the start open
            types = types[:len(types) // 4]
        path = simulate_perm(Permutation(image), types)
        form = ("ungrouped", "grouped", "records")[trial % 3]
        mats = accelerate(path, _runs(types)).matrices if form == "grouped" else path.matrices
        entries = _perm_file_entries(mats, n, form)
        found = forward_initial_perms(entries, n)
        assert found == enumerate_agreeing_perms(recover_perm_moves(entries, n)), (image, types)
        assert Permutation(image) in found
        sizes.add(len(found))
    assert 1 in sizes and len(sizes) > 4, sizes  # settled and open records both
