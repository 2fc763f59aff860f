"""Backward reconstruction from move records and visitation matrices."""
from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from ietrewind.core import Pair, Permutation, inverse, is_irreducible_pair, is_irreducible_perm, make_pair
from ietrewind.oracle import brute_force_initial_perms
from ietrewind.rauzy import MoveRecord, c_completeness, simulate_pair, simulate_perm
from ietrewind.zorich import accelerate
from ietrewind.recovery import (
    AllEmpty,
    AlphabetMismatch,
    BoundExceeded,
    PartiallyOrderedPair,
    Unrealizable,
    _loser_row_rewind,
    agrees,
    agrees_perm,
    enumerate_agreeing,
    enumerate_agreeing_perms,
    enumerate_starting,
    enumeration_bound,
    recover_pair,
    recover_perm,
    star,
    uncertainty_profile,
    uniqueness_threshold,
)

_fs = frozenset

# Three-move record over six symbols leaving plenty of ambiguity.
_SMALL_MOVES = [(1, {2, 3}), (4, {1, 5}), (6, {2, 3, 4})]
_SMALL_Q0 = (_fs({2, 3, 4}), _fs({6}), _fs({5}), _fs({1}))
_SMALL_Q1 = (_fs({5, 6}), _fs({1}), _fs({4}), _fs({2, 3}))

# Seven-move record over letters that settles both rows completely.
_LETTER_MOVES = [
    ("E", {"A", "B"}),
    ("C", {"E"}),
    ("D", {"C"}),
    ("C", {"D"}),
    ("E", {"C", "D"}),
    ("A", {"C", "D", "E"}),
    ("B", {"A"}),
]

# Eight-symbol record: one five-loser move, then a descending chain.
_EIGHT_MOVES = [
    (8, {1, 2, 3, 4, 6}),
    (7, {8}),
    (6, {7}),
    (5, {6}),
    (4, {5}),
    (3, {4}),
    (2, {3}),
    (1, {2}),
]
_EIGHT_Q0 = (_fs({8}), _fs({5}), _fs({7}), _fs({2, 4, 6}), _fs({1}), _fs({3}))
_EIGHT_Q1 = (_fs({1, 3, 5, 7}), _fs({2}), _fs({4}), _fs({6}), _fs({8}))

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


def test_three_move_record_partitions():
    pop, types = recover_pair(_SMALL_MOVES)
    assert pop.q0 == _SMALL_Q0
    assert pop.q1 == _SMALL_Q1
    assert types == (0, 1, 0)
    assert len(enumerate_agreeing(pop)) == 24
    assert len(enumerate_starting(pop)) == 48


def test_three_move_record_trace():
    pop, types, history = recover_pair(_SMALL_MOVES, trace=True)
    assert len(history) == 3
    assert history[0].q0 == (_fs({1, 2, 3, 4, 5}), _fs({6}))
    assert history[0].q1 == (_fs({1, 5, 6}), _fs({2, 3, 4}))
    assert history[-1] == pop


def test_letter_record_settles():
    pop, types = recover_pair(_LETTER_MOVES)
    assert pop.is_settled()
    settled = pop.settled_pair()
    assert settled.row0 == ("A", "B", "C", "D", "E")
    assert settled.row1 == ("E", "D", "C", "B", "A")
    assert types == (0, 1, 0, 1, 0, 1, 0)
    assert agrees(settled, pop)


def test_eight_symbol_record_partitions():
    pop, types = recover_pair(_EIGHT_MOVES)
    assert pop.q0 == _EIGHT_Q0
    assert pop.q1 == _EIGHT_Q1
    assert types == (1, 0, 1, 0, 1, 0, 1, 0)
    candidate = make_pair((8, 5, 7, 2, 4, 6, 1, 3), (1, 3, 5, 7, 2, 4, 6, 8))
    assert agrees(candidate, pop)
    agreeing = enumerate_agreeing(pop)
    assert len(agreeing) == 144
    assert candidate in agreeing
    assert len(enumerate_starting(pop)) == 288


def test_eight_symbol_uncertainty_profile():
    pop, types, history = recover_pair(_EIGHT_MOVES, trace=True)
    steps = [len(set(losers)) for _, losers in _EIGHT_MOVES]
    winners = []
    for (w, losers), s in zip(_EIGHT_MOVES, steps):
        winners.extend([w] * s)
    count, boundaries = c_completeness(winners, tuple(range(1, 9)))
    assert count == 1 and boundaries == (12,)
    assert uncertainty_profile(history, boundaries, steps) == [(2, 3), (7, 7)]


def test_move_record_normalization():
    records = [
        MoveRecord(1, _fs({2, 3}), power=2),
        MoveRecord(4, _fs({1, 5}), power=2),
        MoveRecord(6, _fs({2, 3, 4}), power=3),
    ]
    pop, types = recover_pair(records)
    assert pop.q0 == _SMALL_Q0
    with pytest.raises(ValueError):
        recover_pair([MoveRecord(1, _fs({2, 3}), power=5), MoveRecord(2, _fs({3}))])
    with pytest.raises(ValueError):
        recover_pair([(1, set()), (2, {3})])
    with pytest.raises(ValueError):
        recover_pair([(1, {1, 2}), (2, {3})])


def test_recover_pair_input_errors():
    with pytest.raises(ValueError):
        recover_pair([])
    with pytest.raises(ValueError):
        recover_pair([(1, {2})])  # two symbols only
    with pytest.raises(AlphabetMismatch):
        recover_pair(_SMALL_MOVES, alphabet=(1, 2, 3, 4, 5))


def test_unrealizable_winner_branch():
    with pytest.raises(Unrealizable) as exc:
        recover_pair([(1, {3}), (2, {3})])
    assert exc.value.step == 1
    assert "winner not available" in exc.value.reason


def test_loser_rewind_case_split():
    # single block, winner inside: losers peel off to the back
    got = _loser_row_rewind((_fs({1, 2, 3}),), 1, _fs({2, 3}), 1)
    assert got == (_fs({1}), _fs({2, 3}))
    # single block, winner in the previous block
    got = _loser_row_rewind((_fs({1, 4}), _fs({2, 3})), 1, _fs({2, 3}), 1)
    assert got == (_fs({4}), _fs({1}), _fs({2, 3}))
    # spanning run, winner in the leading block
    got = _loser_row_rewind((_fs({1, 2}), _fs({3}), _fs({4, 5})), 1, _fs({2, 3, 4}), 1)
    assert got == (_fs({1}), _fs({5}), _fs({2}), _fs({3}), _fs({4}))
    # spanning run, whole leading block loses
    got = _loser_row_rewind((_fs({6, 1}), _fs({2}), _fs({3, 4})), 6, _fs({2, 3}), 1)
    assert got == (_fs({1}), _fs({6}), _fs({4}), _fs({2}), _fs({3}))


def test_loser_rewind_rejections():
    with pytest.raises(Unrealizable) as exc:
        _loser_row_rewind((_fs({1}), _fs({2}), _fs({3}), _fs({4})), 2, _fs({1, 3}), 7)
    assert "non-adjacent" in exc.value.reason and exc.value.step == 7
    with pytest.raises(Unrealizable) as exc:
        _loser_row_rewind((_fs({1}), _fs({2}), _fs({3})), 1, _fs({3}), 2)
    assert "not adjacent" in exc.value.reason
    with pytest.raises(Unrealizable) as exc:
        _loser_row_rewind((_fs({1, 2}), _fs({3, 4}), _fs({5, 6})), 1, _fs({2, 3, 5}), 3)
    assert "keeps a non-loser" in exc.value.reason
    with pytest.raises(Unrealizable) as exc:
        _loser_row_rewind((_fs({9}), _fs({1, 2}), _fs({3, 4})), 9, _fs({2, 3, 4}), 4)
    assert "leading block" in exc.value.reason
    with pytest.raises(Unrealizable):
        _loser_row_rewind((_fs({1}), _fs({2})), 1, _fs({7}), 5)


def test_star_and_partition_validation():
    assert star(({1, 2}, set(), {3})) == (_fs({1, 2}), _fs({3}))
    with pytest.raises(AllEmpty):
        star((set(), set()))
    with pytest.raises(ValueError):
        PartiallyOrderedPair((1, 2, 3), (_fs({1, 2}), _fs({2, 3})), (_fs({1, 2, 3}),))
    with pytest.raises(ValueError):
        PartiallyOrderedPair((1, 2, 3), (_fs({1, 2}),), (_fs({1, 2, 3}),))
    with pytest.raises(ValueError):
        PartiallyOrderedPair((1, 2, 3), (_fs({1, 2, 3}), _fs()), (_fs({1, 2, 3}),))


def test_agrees_and_mismatch():
    pop = PartiallyOrderedPair((1, 2, 3), (_fs({1, 2}), _fs({3})), (_fs({3}), _fs({1, 2})))
    assert agrees(make_pair((2, 1, 3), (3, 1, 2)), pop)
    assert not agrees(make_pair((1, 3, 2), (3, 1, 2)), pop)
    with pytest.raises(AlphabetMismatch):
        agrees(make_pair((1, 2, 4), (4, 2, 1)), pop)


def test_enumeration_bound_and_env(monkeypatch):
    assert enumeration_bound() == 9
    monkeypatch.setenv("IET_REWIND_MAX_ENUM", "4")
    assert enumeration_bound() == 4
    pop = PartiallyOrderedPair(
        (1, 2, 3, 4, 5), (_fs({1, 2, 3, 4, 5}),), (_fs({1, 2, 3, 4, 5}),)
    )
    with pytest.raises(BoundExceeded):
        enumerate_agreeing(pop)
    # an explicit bound overrides the environment
    assert len(enumerate_agreeing(pop, bound=5)) > 0
    with pytest.raises(BoundExceeded):
        enumerate_agreeing_perms((_fs({1, 2, 3, 4, 5}),))


def test_recover_perm_partial_trace():
    blocks, history = recover_perm([_A1, _A2, _A3, _A4], trace=True)
    assert blocks == (_fs({2, 3, 5}), _fs({4}), _fs({1}))
    assert history == [
        (_fs({2, 4, 5}), _fs({1, 3})),
        (_fs({2, 3, 4}), _fs({5}), _fs({1})),
        (_fs({2, 3, 4}), _fs({5}), _fs({1})),
        (_fs({2, 3, 5}), _fs({4}), _fs({1})),
    ]
    assert len(enumerate_agreeing_perms(blocks)) == 6


def test_recover_perm_settles_with_more_moves():
    blocks = recover_perm([_A1, _A2, _A3, _A4, _A5, _A6])
    assert blocks == (_fs({3}), _fs({2}), _fs({5}), _fs({4}), _fs({1}))
    found = enumerate_agreeing_perms(blocks)
    assert found == [Permutation((5, 2, 1, 4, 3))]
    assert agrees_perm(Permutation((5, 2, 1, 4, 3)), blocks)
    assert not agrees_perm(Permutation((5, 2, 1, 3, 4)), blocks)


def test_recover_perm_input_errors():
    with pytest.raises(ValueError):
        recover_perm([])
    with pytest.raises(ValueError):
        recover_perm([_A1, ((1, 0), (0, 1))])


def test_uniqueness_threshold_values():
    assert [uniqueness_threshold(n) for n in range(3, 10)] == [1, 2, 2, 2, 2, 3, 3]


@st.composite
def _pair_and_types(draw):
    n = draw(st.integers(3, 7))
    row0 = tuple(range(1, n + 1))
    row1 = tuple(draw(st.permutations(row0)))
    types = draw(st.lists(st.integers(0, 1), min_size=2, max_size=3 * n))
    return make_pair(row0, row1), types


@given(_pair_and_types())
@settings(deadline=None, max_examples=120)
def test_recovered_knowledge_admits_start_or_inverse(case):
    start, types = case
    assume(is_irreducible_pair(start))
    path = simulate_pair(start, types)
    pop, got_types = recover_pair(path.moves, alphabet=start.alphabet)
    flipped = tuple(1 - t for t in got_types)
    assert tuple(types) in (got_types, flipped)
    if tuple(types) == got_types:
        assert agrees(start, pop)
    else:
        assert agrees(inverse(start), pop)


@given(st.permutations(list(range(1, 7))), st.lists(st.integers(0, 1), min_size=1, max_size=14))
@settings(deadline=None, max_examples=120)
def test_recover_perm_always_admits_start(image, types):
    start = Permutation(tuple(image))
    assume(is_irreducible_perm(start))
    path = simulate_perm(start, types)
    blocks = recover_perm(path.matrices)
    assert agrees_perm(start, blocks)


def _type_runs(types):
    runs = []
    for i, t in enumerate(types):
        if i and t == types[i - 1]:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


def _grouped_perm_matrices(start, types):
    return accelerate(simulate_perm(start, types), _type_runs(types)).matrices


def test_recover_perm_pins_n_through_a_grouped_type1_run():
    # A type-1 block at k keeps the value n at position k.  Without that pin
    # recovery would also admit [5, 4, 3, 1, 2], which the oracle rejects.
    start = Permutation((4, 5, 3, 1, 2))
    types = [0] * 5 + [1, 0, 1, 1, 0, 0, 0]
    mats = accelerate(simulate_perm(start, types), [5, 1, 1, 2, 3]).matrices
    blocks = recover_perm(mats)
    assert blocks == (_fs({4}), _fs({5}), _fs({3}), _fs({1}), _fs({2}))
    assert enumerate_agreeing_perms(blocks) == brute_force_initial_perms(mats, 5) == [start]


@given(st.integers(4, 6).flatmap(lambda n: st.tuples(
    st.permutations(list(range(1, n + 1))), st.lists(st.integers(0, 1), min_size=1, max_size=3 * n)
)))
@settings(deadline=None, max_examples=60)
def test_recover_perm_on_grouped_records_matches_oracle(case):
    image, types = case
    start = Permutation(tuple(image))
    assume(is_irreducible_perm(start))
    mats = _grouped_perm_matrices(start, types)
    blocks = recover_perm(mats)
    assert agrees_perm(start, blocks)
    assert enumerate_agreeing_perms(blocks) == brute_force_initial_perms(mats, start.n)


@given(st.permutations(list(range(1, 7))), st.lists(st.integers(0, 1), min_size=1, max_size=14))
@settings(deadline=None, max_examples=120)
def test_recover_perm_grouped_always_admits_start(image, types):
    start = Permutation(tuple(image))
    assume(is_irreducible_perm(start))
    assert agrees_perm(start, recover_perm(_grouped_perm_matrices(start, types)))
