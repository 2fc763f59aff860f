"""Brute-force cross-checks for the reverse algorithms."""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from ietrewind import oracle
from ietrewind.core import Permutation, inverse, is_irreducible_pair, is_irreducible_perm, make_pair
from ietrewind.oracle import (
    brute_force_initial_pairs,
    brute_force_initial_perms,
    forward_simulate,
)
from ietrewind.rauzy import simulate_pair
from ietrewind.recovery import (
    BoundExceeded,
    enumerate_agreeing_perms,
    enumerate_starting,
    recover_pair,
    recover_perm,
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


def test_forward_simulate_rejections():
    assert not forward_simulate(_ANCHOR, [(2, {5})], [1])  # wrong winner
    assert not forward_simulate(_ANCHOR, [(1, {3})], [1])  # wrong loser set
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


def test_brute_force_parallel_and_unpruned_agree():
    path = simulate_pair(make_pair((1, 2, 3, 4), (4, 3, 2, 1)), [0, 1, 0, 0])
    moves = path.moves
    base = brute_force_initial_pairs(moves, (1, 2, 3, 4))
    par = brute_force_initial_pairs(moves, (1, 2, 3, 4), jobs=2)
    full = brute_force_initial_pairs(moves, (1, 2, 3, 4), prune=False)
    assert base.realizers == par.realizers == full.realizers
    assert full.candidates_checked > base.candidates_checked


def test_brute_force_jobs_are_clamped(monkeypatch):
    path = simulate_pair(make_pair((1, 2, 3, 4), (4, 3, 2, 1)), [0, 1, 0, 0])
    workers = []

    def recording_pool(max_workers):
        workers.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", recording_pool)
    one = brute_force_initial_pairs(path.moves, (1, 2, 3, 4))
    for cpus, pools in ((2, [2]), (None, [])):
        workers.clear()
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        three = brute_force_initial_pairs(path.moves, (1, 2, 3, 4), jobs=3)
        assert (three.candidates_checked, three.realizers) == (one.candidates_checked, one.realizers)
        assert workers == pools


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
