"""Backward reconstruction from move records and visitation matrices."""
from __future__ import annotations

import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from ietrewind.core import Pair, Permutation, inverse, is_irreducible_pair, is_irreducible_perm, make_pair
from ietrewind.oracle import brute_force_initial_perms
from ietrewind.rauzy import MoveRecord, c_completeness, simulate_pair, simulate_perm
from ietrewind.zorich import accelerate
from ietrewind.recovery import (
    AlphabetMismatch,
    BoundExceeded,
    OrderedPartition,
    PartiallyOrderedPair,
    Unrealizable,
    _loser_row_rewind,
    _winner_row_rewind,
    agrees,
    agrees_perm,
    enumerate_agreeing,
    enumerate_agreeing_perms,
    enumerate_starting,
    recover_pair,
    recover_perm,
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


class _TraceEntry:
    """Stands in for a trace entry: its uncertainties name its place in the trace."""

    def __init__(self, place, n):
        self.place, self.n = place, n

    def uncertainty(self, t):
        return 2 * self.place + t


@given(st.lists(st.integers(1, 4), min_size=1, max_size=12), st.data())
@settings(deadline=None, max_examples=100)
def test_uncertainty_profile_reads_the_move_where_each_stretch_starts(steps, data):
    history = [_TraceEntry(place, 5) for place in range(len(steps))]
    total = sum(steps)
    boundaries = sorted(data.draw(st.sets(st.integers(1, total), max_size=total)))
    want, previous_end = [], 0
    for b in boundaries:
        # the first move (1-based) whose steps reach past the previous stretch
        move = next(m for m in range(1, len(steps) + 1) if sum(steps[:m]) > previous_end)
        want.append((2 * (len(steps) - move), 2 * (len(steps) - move) + 1))
        previous_end = b
    assert uncertainty_profile(history, boundaries, steps) == want + [(4, 4)]
    if steps == [1] * len(steps):
        assert uncertainty_profile(history, boundaries) == want + [(4, 4)]
    with pytest.raises(ValueError, match="beyond the path"):
        uncertainty_profile(history, boundaries + [total, total + 1], steps)
    with pytest.raises(ValueError, match="align"):
        uncertainty_profile(history, boundaries, steps + [1])


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


def _loser_rewound(blocks, winner, losers, step):
    part = OrderedPartition(blocks)
    _loser_row_rewind(part, winner, losers, step)
    return part.snapshot()


def test_loser_rewind_case_split():
    # single block, winner inside: losers peel off to the back
    got = _loser_rewound((_fs({1, 2, 3}),), 1, _fs({2, 3}), 1)
    assert got == (_fs({1}), _fs({2, 3}))
    # single block, winner in the previous block
    got = _loser_rewound((_fs({1, 4}), _fs({2, 3})), 1, _fs({2, 3}), 1)
    assert got == (_fs({4}), _fs({1}), _fs({2, 3}))
    # spanning run, winner in the leading block
    got = _loser_rewound((_fs({1, 2}), _fs({3}), _fs({4, 5})), 1, _fs({2, 3, 4}), 1)
    assert got == (_fs({1}), _fs({5}), _fs({2}), _fs({3}), _fs({4}))
    # spanning run, whole leading block loses
    got = _loser_rewound((_fs({6, 1}), _fs({2}), _fs({3, 4})), 6, _fs({2, 3}), 1)
    assert got == (_fs({1}), _fs({6}), _fs({4}), _fs({2}), _fs({3}))


def test_loser_rewind_rejections():
    with pytest.raises(Unrealizable) as exc:
        _loser_rewound((_fs({1}), _fs({2}), _fs({3}), _fs({4})), 2, _fs({1, 3}), 7)
    assert "non-adjacent" in exc.value.reason and exc.value.step == 7
    with pytest.raises(Unrealizable) as exc:
        _loser_rewound((_fs({1}), _fs({2}), _fs({3})), 1, _fs({3}), 2)
    assert "not adjacent" in exc.value.reason
    with pytest.raises(Unrealizable) as exc:
        _loser_rewound((_fs({1, 2}), _fs({3, 4}), _fs({5, 6})), 1, _fs({2, 3, 5}), 3)
    assert "keeps a non-loser" in exc.value.reason
    with pytest.raises(Unrealizable) as exc:
        _loser_rewound((_fs({9}), _fs({1, 2}), _fs({3, 4})), 9, _fs({2, 3, 4}), 4)
    assert "leading block" in exc.value.reason
    with pytest.raises(Unrealizable):
        _loser_rewound((_fs({1}), _fs({2})), 1, _fs({7}), 5)


# Reference copy of the rewind rules on tuples of frozensets, the form the
# linked-block partition replaced.  Each step rebuilds the whole tuple.

def _ref_star(blocks) -> tuple:
    out = tuple(frozenset(b) for b in blocks if b)
    assert out, "all blocks empty"
    return out


def _ref_winner_row_rewind(blocks, winner, step: int) -> tuple:
    last = blocks[-1]
    if winner not in last:
        raise Unrealizable(step, "winner not available at the right end of its row")
    return _ref_star(blocks[:-1] + (last - {winner}, frozenset((winner,))))


def _ref_loser_row_rewind(blocks, winner, losers, step: int) -> tuple:
    hits = [i for i, b in enumerate(blocks) if b & losers]
    if not hits:
        raise Unrealizable(step, "losers outside the alphabet")
    lo, hi = hits[0], hits[-1]
    if hits != list(range(lo, hi + 1)):
        raise Unrealizable(step, "loser set scattered over non-adjacent blocks")
    if lo == hi:
        block = blocks[lo]
        if winner in block:
            return _ref_star(blocks[:lo] + (block - losers,) + blocks[lo + 1:] + (losers,))
        if lo == 0 or winner not in blocks[lo - 1]:
            raise Unrealizable(step, "winner not adjacent to the loser run")
        return _ref_star(
            blocks[:lo - 1]
            + (blocks[lo - 1] - {winner}, frozenset((winner,)), block - losers)
            + blocks[lo + 1:]
            + (losers,)
        )
    for i in range(lo + 1, hi):
        if not blocks[i] <= losers:
            raise Unrealizable(step, "block inside the loser run keeps a non-loser")
    head, tail = blocks[lo], blocks[hi]
    if winner in head:
        return _ref_star(
            blocks[:lo]
            + (head - losers - {winner}, frozenset((winner,)), tail - losers)
            + blocks[hi + 1:]
            + (head & losers,)
            + blocks[lo + 1:hi]
            + (tail & losers,)
        )
    if not head <= losers:
        raise Unrealizable(step, "leading block of the loser run keeps a non-loser")
    if lo == 0 or winner not in blocks[lo - 1]:
        raise Unrealizable(step, "winner not adjacent to the loser run")
    return _ref_star(
        blocks[:lo - 1]
        + (blocks[lo - 1] - {winner}, frozenset((winner,)), tail - losers)
        + blocks[hi + 1:]
        + (head,)
        + blocks[lo + 1:hi]
        + (tail & losers,)
    )


def _random_partition(rng, n):
    symbols = list(range(1, n + 1))
    rng.shuffle(symbols)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return tuple(_fs(symbols[a:b]) for a, b in zip([0] + cuts, cuts + [n]))


def _random_step(rng, blocks, n):
    """A winner and a loser set over 1..n, half the time a plausible run."""
    if rng.random() < 0.5:
        winner = rng.randint(1, n)
        others = [x for x in range(1, n + 1) if x != winner]
        return winner, _fs(rng.sample(others, rng.randint(1, len(others))))
    row = [x for b in blocks for x in rng.sample(sorted(b), len(b))]
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n)
    return row[i - 1], _fs(row[i:j])


def test_linked_rewind_matches_the_tuple_rules():
    # Seeded walks: each step rewinds the winner row or the loser row in both
    # forms; snapshots and every (step, reason) must agree, and a rejected
    # step must leave the partition as it was.
    rng = random.Random(20221)
    reasons, accepted = set(), 0
    for _ in range(10000):
        n = rng.randint(3, 9)
        ref = _random_partition(rng, n)
        part = OrderedPartition(ref)
        for step in range(1, 13):
            winner, losers = _random_step(rng, ref, n)
            on_winner_row = rng.random() < 0.3
            try:
                if on_winner_row:
                    expected = _ref_winner_row_rewind(ref, winner, step)
                else:
                    expected = _ref_loser_row_rewind(ref, winner, losers, step)
            except Unrealizable as want:
                with pytest.raises(Unrealizable) as got:
                    if on_winner_row:
                        _winner_row_rewind(part, winner, step)
                    else:
                        _loser_row_rewind(part, winner, losers, step)
                assert (got.value.step, got.value.reason) == (want.step, want.reason)
                assert part.snapshot() == ref
                reasons.add(want.reason)
                break
            if on_winner_row:
                _winner_row_rewind(part, winner, step)
            else:
                _loser_row_rewind(part, winner, losers, step)
            assert part.snapshot() == expected
            assert len(part) == len(expected)
            ref = expected
            accepted += 1
    assert accepted > 10000
    assert len(reasons) == 5  # every rejection but foreign losers


def test_partition_validation():
    assert OrderedPartition(({1, 2}, set(), {3})).snapshot() == (_fs({1, 2}), _fs({3}))
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


def test_enumeration_stops_past_the_candidate_bound():
    # only the candidate count bounds an enumeration, so one block of five
    # symbols enumerates whatever the size
    pop = PartiallyOrderedPair(
        (1, 2, 3, 4, 5), (_fs({1, 2, 3, 4, 5}),), (_fs({1, 2, 3, 4, 5}),)
    )
    assert len(enumerate_agreeing(pop)) > 0
    assert len(enumerate_agreeing_perms((_fs({1, 2, 3, 4, 5}),))) > 0
    # more than 10^5 candidates (here 7!*3!*2!*2! and 7!*4!) is over the bound
    nine = PartiallyOrderedPair(
        tuple(range(1, 10)),
        (_fs(range(1, 8)), _fs({8}), _fs({9})),
        (_fs({1, 2, 3}), _fs({4, 5}), _fs({6, 7}), _fs({8}), _fs({9})),
    )
    with pytest.raises(BoundExceeded):
        enumerate_agreeing(nine)
    with pytest.raises(BoundExceeded):
        enumerate_agreeing_perms((_fs(range(1, 8)), _fs(range(8, 12))))


def test_a_huge_block_is_over_the_bound_at_once():
    # the candidate count stops growing once past the bound, so a block of
    # 10^6 positions costs no factorial(10^6)
    block = _fs(range(1, 10**6 + 1))
    begin = time.perf_counter()
    with pytest.raises(BoundExceeded):
        enumerate_agreeing_perms((block,))
    assert time.perf_counter() - begin < 1.0


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
