"""Backward reconstruction from move records and visitation matrices."""
from __future__ import annotations

import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from itertools import chain, permutations, product

from ietrewind import recovery
from ietrewind.core import Pair, Permutation, inverse, is_irreducible_pair, is_irreducible_perm, make_pair
from ietrewind.oracle import brute_force_initial_perms
from ietrewind.rauzy import c_completeness, simulate_pair, simulate_perm, type1_shift, walk_until_complete
from ietrewind.zorich import ZorichMove, accelerate
from ietrewind.recovery import (
    AlphabetMismatch,
    BoundExceeded,
    OrderedPartition,
    PartiallyOrderedPair,
    Unrealizable,
    _Block,
    _check_bounds,
    _loser_row_rewind,
    _unit_run_rewind,
    _winner_row_rewind,
    agrees,
    agrees_perm,
    decode_perm_matrices,
    enumerate_agreeing,
    enumerate_agreeing_perms,
    enumerate_starting,
    recover_pair,
    recover_perm,
    recover_perm_moves,
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
        ZorichMove(1, _fs({2, 3}), 1, _fs({2, 3})),
        ZorichMove(4, _fs({1, 5}), 1, _fs({1, 5})),
        ZorichMove(6, _fs({2, 3, 4}), 1, _fs({2, 3, 4})),
    ]
    pop, types = recover_pair(records)
    assert pop.q0 == _SMALL_Q0
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


def test_alphabet_mismatch_names_the_first_step_of_a_repeated_bad_move():
    # each bad move is one shared object at several entries; the error names
    # the earliest entry that holds a bad move, whichever move that is
    good, other, bad, worse = (ZorichMove(w, _fs({l}), 1, _fs({l})) for w, l in ((1, 2), (2, 3), (1, 9), (8, 2)))
    with pytest.raises(AlphabetMismatch, match="^step 3: symbols outside the alphabet$"):
        recover_pair([good, other, bad, good, bad, other], alphabet=(1, 2, 3))
    with pytest.raises(AlphabetMismatch, match="^step 3: symbols outside the alphabet$"):
        recover_pair([good, other, bad, worse, bad], alphabet=(1, 2, 3))
    with pytest.raises(AlphabetMismatch, match="^step 2: symbols outside the alphabet$"):
        recover_pair([good, worse, bad, worse], alphabet=(1, 2, 3))


def test_alphabet_mismatch_inside_a_run_names_the_entry_of_its_loser():
    # entries 2 to 4 are one run of winner 1, rewound in one call
    unit = [ZorichMove(w, _fs({l}), 1, _fs({l})) for w, l in ((2, 3), (1, 2), (1, 9), (1, 3))]
    for moves in (unit, [(m.winner, set(m.losers)) for m in unit]):
        with pytest.raises(AlphabetMismatch, match="^step 3: symbols outside the alphabet$"):
            recover_pair(moves, alphabet=(1, 2, 3))


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
    """A winner and a loser set over 1..n: a third of the time any, a third a
    plausible run, and a third one loser placed after the winner, as a unit
    move's loser is, so that the one-loser path meets blocks of every size."""
    pick = rng.random()
    if pick < 1 / 3:
        winner = rng.randint(1, n)
        others = [x for x in range(1, n + 1) if x != winner]
        return winner, _fs(rng.sample(others, rng.randint(1, len(others))))
    row = [x for b in blocks for x in rng.sample(sorted(b), len(b))]
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n) if pick < 2 / 3 else i + 1
    return row[i - 1], _fs(row[i:j])


def _one_loser_case(blocks, winner, loser) -> tuple:
    """The branch a one-loser step takes: where its winner sits against the
    loser's block (in it, just before it and alone there or not, or anywhere
    else, which is a rejection) and whether the loser is alone in its block."""
    at = {x: i for i, b in enumerate(blocks) for x in b}
    gap = at[loser] - at[winner]
    if gap == 0:
        place = "same"
    elif gap == 1:
        place = "alone before" if len(blocks[at[winner]]) == 1 else "shared before"
    else:
        place = "elsewhere"
    return place, len(blocks[at[loser]]) == 1


def test_linked_rewind_matches_the_tuple_rules():
    # Seeded walks: each step rewinds the winner row or the loser row in both
    # forms; snapshots and every (step, reason) must agree, and a rejected
    # step must leave the partition as it was.
    rng = random.Random(20221)
    reasons, accepted = set(), 0
    one_loser = {}  # _one_loser_case -> how many loser-row steps with one loser took it
    for _ in range(10000):
        n = rng.randint(3, 9)
        ref = _random_partition(rng, n)
        part = OrderedPartition(ref)
        for step in range(1, 13):
            winner, losers = _random_step(rng, ref, n)
            on_winner_row = rng.random() < 0.3
            if len(losers) == 1 and not on_winner_row:
                case = _one_loser_case(ref, winner, *losers)
                one_loser[case] = one_loser.get(case, 0) + 1
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
    # the one-loser path met every branch, its rejection included
    places = ("same", "alone before", "shared before", "elsewhere")
    assert set(one_loser) == {(p, alone) for p in places for alone in (True, False)} - {("same", True)}
    assert min(one_loser.values()) > 100, one_loser


def _general_loser_row_rewind(part: OrderedPartition, winner, losers, step: int):
    """``_loser_row_rewind`` as it was before its one-loser short path: the
    general branch, kept here as the reference for that path."""
    where = part._where
    hit: dict = {}  # block -> the losers it holds
    for x in losers:
        node = where.get(x)
        if node is None:
            raise Unrealizable(step, "losers outside the alphabet")
        if node in hit:
            hit[node].add(x)
        else:
            hit[node] = {x}
    if not hit:
        raise Unrealizable(step, "losers outside the alphabet")
    lo = hi = next(iter(hit))
    if len(hit) > 1:
        while lo.prev in hit:
            lo = lo.prev
        while hi.next in hit:
            hi = hi.next
        run = [lo]
        while run[-1] is not hi:
            run.append(run[-1].next)
        if len(run) != len(hit):
            raise Unrealizable(step, "loser set scattered over non-adjacent blocks")
    winner_node = where.get(winner)
    if lo is hi:
        if winner_node is lo:
            part._append(part._take(lo, hit[lo]))
            return
        if winner_node is not lo.prev:
            raise Unrealizable(step, "winner not adjacent to the loser run")
        part._pin_after(winner_node, winner)
        part._append(part._take(lo, hit[lo]))
        return
    interior = run[1:-1]
    for node in interior:
        if len(hit[node]) != len(node.items):
            raise Unrealizable(step, "block inside the loser run keeps a non-loser")
    if winner_node is lo:
        head = part._take(lo, hit[lo])
        part._pin_after(lo, winner)
    else:
        if len(hit[lo]) != len(lo.items):
            raise Unrealizable(step, "leading block of the loser run keeps a non-loser")
        if winner_node is not lo.prev:
            raise Unrealizable(step, "winner not adjacent to the loser run")
        part._pin_after(winner_node, winner)
        head = part._take(lo, hit[lo])
    for node in interior:
        part._unlink(node)
    tail = part._take(hi, hit[hi])
    for node in [head, *interior, tail]:
        part._append(node)


@st.composite
def _partition_and_one_loser_steps(draw):
    """A random ordered partition of 1..n, n 3..9, and (winner, loser) steps
    over 1..n+1, so that a symbol outside the partition comes up too."""
    n = draw(st.integers(3, 9))
    symbols = draw(st.permutations(range(1, n + 1)))
    bounds = [0, *sorted(draw(st.sets(st.integers(1, n - 1)))), n]
    blocks = tuple(_fs(symbols[a:b]) for a, b in zip(bounds, bounds[1:]))
    pick = st.integers(1, n + 1)
    return blocks, draw(st.lists(st.tuples(pick, pick), min_size=1, max_size=10))


@given(_partition_and_one_loser_steps())
@settings(max_examples=400, deadline=None)
def test_one_loser_short_path_matches_the_general_branch(case):
    blocks, steps = case
    short, general = OrderedPartition(blocks), OrderedPartition(blocks)
    for step, (winner, loser) in enumerate(steps, 1):
        losers = _fs((loser,))
        try:
            _general_loser_row_rewind(general, winner, losers, step)
        except Unrealizable as want:
            with pytest.raises(Unrealizable) as got:
                _loser_row_rewind(short, winner, losers, step)
            assert (got.value.step, got.value.reason) == (want.step, want.reason)
            assert short.snapshot() == general.snapshot()
            return
        _loser_row_rewind(short, winner, losers, step)
        assert short.snapshot() == general.snapshot()
        assert len(short) == len(general)
        assert all(short.block_of(s) == general.block_of(s) for s in range(1, len(short._where) + 1))


def _one_loser_rewind(part: OrderedPartition, winner, x, step: int):
    """The one-loser path of ``_loser_row_rewind`` as it was before the
    unit-run kernel took it over, kept here as that kernel's reference."""
    where = part._where
    node = where.get(x)
    if node is None:
        raise Unrealizable(step, "losers outside the alphabet")
    winner_node = where.get(winner)
    if winner_node is not node:
        if winner_node is not node.prev:
            raise Unrealizable(step, "winner not adjacent to the loser run")
        if len(winner_node.items) > 1:  # pin the winner between its block and the loser's
            winner_node.items.discard(winner)
            winner_node.next = node.prev = where[winner] = _Block({winner}, winner_node, node)
            part._count += 1
    if len(node.items) == 1:  # the loser's block moves to the back whole
        node.prev.next, node.next.prev = node.next, node.prev
    else:
        node.items.discard(x)
        node = where[x] = _Block({x})
        part._count += 1
    root = part._root
    node.prev, node.next = root.prev, root
    root.prev.next = root.prev = node


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_unit_run_kernel_matches_one_reference_call_per_loser(data):
    # A random ordered partition of 1..n, a winner over 1..n+1, and a run of
    # single losers, numbered up or down from a random step.  Most losers sit
    # where the rule accepts them, in the winner's block or the next one, so
    # runs get long; the others, and a foreign symbol, meet its rejections.
    n = data.draw(st.integers(3, 9))
    symbols = data.draw(st.permutations(range(1, n + 1)))
    bounds = [0, *sorted(data.draw(st.sets(st.integers(1, n - 1)))), n]
    blocks = tuple(_fs(symbols[a:b]) for a, b in zip(bounds, bounds[1:]))
    winner = data.draw(st.integers(1, n + 1))
    guide, losers = OrderedPartition(blocks), []
    for _ in range(data.draw(st.integers(1, 12))):
        near = []
        if winner in guide._where:
            node = guide._where[winner]
            near = sorted(node.items | (node.next.items if node.next is not guide._root else set()))
        pick = st.sampled_from(near) if near and data.draw(st.integers(0, 4)) else st.integers(1, n + 1)
        losers.append(data.draw(pick))
        try:
            _one_loser_rewind(guide, winner, losers[-1], 0)
        except Unrealizable:
            break
    first, stride = data.draw(st.integers(1, 99)), data.draw(st.sampled_from((1, -1)))
    steps = range(first, first + stride * len(losers), stride)

    ref, part = OrderedPartition(blocks), OrderedPartition(blocks)
    want = None
    try:
        for x, step in zip(losers, steps):
            _one_loser_rewind(ref, winner, x, step)
    except Unrealizable as exc:
        want = exc
    if want is None:
        _unit_run_rewind(part, winner, losers, steps)
    else:
        with pytest.raises(Unrealizable) as got:
            _unit_run_rewind(part, winner, losers, steps)
        assert (got.value.step, got.value.reason) == (want.step, want.reason)
    assert part.snapshot() == ref.snapshot()
    assert len(part) == len(ref)
    assert all(part.block_of(s) == ref.block_of(s) for s in range(1, n + 1))


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


# Reference copies of the permutation code that renamed positions: the rewind
# rebuilt its partition over the new positions at every type-1 entry, and
# enumeration and agreement read value runs directly.

def _ref_recover_perm_moves(moves, n, trace=False):
    items = []
    for src, move in enumerate(moves, 1):
        if isinstance(move, ZorichMove):
            items.extend((src, losers) for _, losers in move.units())
        else:
            items.append((src, move))
    _, item = items[-1]
    last = {item[0]} if isinstance(item, tuple) else item
    part = OrderedPartition((set(range(1, n + 1)) - last, last))
    history = [part.snapshot()] if trace else None
    for src, item in reversed(items[:-1]):
        if isinstance(item, tuple):
            k, p = item
            shift = type1_shift(range(1, n + 1), k, p)
            part = OrderedPartition([{shift[v - 1] for v in b} for b in part])
            _winner_row_rewind(part, k, src)
        else:
            _loser_row_rewind(part, n, item, src)
        if trace:
            history.append(part.snapshot())
    blocks = part.snapshot()
    if trace:
        return blocks, history
    return blocks


def _ref_enumerate_agreeing_perms(blocks):
    n = sum(len(b) for b in blocks)
    _check_bounds(blocks)
    per_block = []
    low = 1
    for block in blocks:
        positions = sorted(block)
        values = range(low, low + len(block))
        per_block.append([list(zip(positions, perm)) for perm in permutations(values)])
        low += len(block)
    out = []
    for combo in product(*per_block):
        image = [0] * n
        for pos, val in chain.from_iterable(combo):
            image[pos - 1] = val
        cand = Permutation(tuple(image))
        if is_irreducible_perm(cand):
            out.append(cand)
    out.sort(key=lambda p: p.image)
    return out


def _ref_agrees_perm(perm, blocks):
    low = 1
    for block in blocks:
        values = {perm.image[i - 1] for i in block}
        if values != set(range(low, low + len(block))):
            return False
        low += len(block)
    return True


def _random_irreducible_perm(rng, n):
    image = list(range(1, n + 1))
    while True:
        rng.shuffle(image)
        if is_irreducible_perm(Permutation(tuple(image))):
            return Permutation(tuple(image))


def _outcome(recover, moves, n, trace):
    try:
        return recover(moves, n, trace=trace)
    except Unrealizable as exc:
        return exc.step, exc.reason


def test_recover_perm_on_labels_matches_the_relabelling_rewind():
    # Seeded records, ungrouped and grouped by type runs, about 30% with one
    # entry replaced by a random type-1 power or type-0 loser set; blocks,
    # traces and every (step, reason) must agree with the reference copy.
    rng = random.Random(20231)
    outcomes = {"settled": 0, "partial": 0, "unrealizable": 0}
    for _ in range(3000):
        n = rng.randint(3, 9)
        start = _random_irreducible_perm(rng, n)
        types = [rng.randint(0, 1) for _ in range(rng.randint(1, 3 * n))]
        path = simulate_perm(start, types)
        mats = accelerate(path, _type_runs(types)).matrices if rng.random() < 0.5 else path.matrices
        moves, _ = decode_perm_matrices(mats)
        if rng.random() < 0.3:
            j = rng.randrange(len(moves))
            if rng.random() < 0.5:
                moves[j] = (rng.randint(1, n - 1), rng.randint(1, 2 * n))
            else:
                losers = _fs(rng.sample(range(1, n), rng.randint(1, n - 1)))
                moves[j] = ZorichMove(n, losers, 1, losers)
        trace = rng.random() < 0.5
        got = _outcome(recover_perm_moves, moves, n, trace)
        assert got == _outcome(_ref_recover_perm_moves, moves, n, trace)
        blocks = got[0] if trace else got
        if isinstance(got[1], str):  # an Unrealizable's (step, reason)
            outcomes["unrealizable"] += 1
        else:
            outcomes["settled" if len(blocks) == n else "partial"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_perm_enumeration_and_agreement_match_the_value_run_reading():
    rng = random.Random(20232)
    found = 0
    for _ in range(400):
        n = rng.randint(3, 8)
        blocks = _random_partition(rng, n)
        while len(blocks) == 1 and n == 8:  # 8! orders take a second each way; 7! and below stay in
            blocks = _random_partition(rng, n)
        got = enumerate_agreeing_perms(blocks)
        assert [p.image for p in got] == [p.image for p in _ref_enumerate_agreeing_perms(blocks)]
        found += len(got)
        probes = got[:3] + [_random_irreducible_perm(rng, n) for _ in range(3)]
        for perm in probes + [Permutation(perm.image[1:] + perm.image[:1]) for perm in probes]:
            assert agrees_perm(perm, blocks) == _ref_agrees_perm(perm, blocks)
    assert found > 1000
    # past the candidate bound both raise before building anything
    for blocks in ((_fs(range(1, 10)),), (_fs(range(1, 8)), _fs(range(8, 12))), (_fs({1, 2}), _fs(range(3, 12)))):
        for enumerate_perms in (enumerate_agreeing_perms, _ref_enumerate_agreeing_perms):
            with pytest.raises(BoundExceeded):
                enumerate_perms(blocks)


def test_recover_perm_at_n256_builds_one_partition(monkeypatch):
    # 8,803 moves from a random 256-symbol start, 4,441 of them type 1; the
    # relabelling rewind built a partition for each type-1 entry
    rng = random.Random(4)
    image = list(range(1, 257))
    while True:
        rng.shuffle(image)
        start = Permutation(tuple(image))
        if is_irreducible_perm(start):
            break
    types, _ = walk_until_complete(start, rng, 3)
    moves = list(simulate_perm(start, types).moves)
    assert (len(moves), sum(isinstance(m, tuple) for m in moves)) == (8803, 4441)
    built = []

    class CountedPartition(OrderedPartition):
        __slots__ = ()

        def __init__(self, blocks):
            built.append(1)
            super().__init__(blocks)

    monkeypatch.setattr(recovery, "OrderedPartition", CountedPartition)
    blocks = recover_perm_moves(moves, 256)
    assert len(built) == 1
    assert enumerate_agreeing_perms(blocks) == [start]


# Reference copies of the seeded loops: knowledge began as the state before
# the last move, built by hand with that move taken as type 0, and every
# block was expanded into its unit moves, each rewound in turn.

def _seeded_recover_pair(moves, alphabet, trace=False):
    seq = []
    for src, m in enumerate(moves, 1):
        if isinstance(m, ZorichMove):
            seq.extend((src, w, losers) for w, losers in m.units())
        else:
            seq.append((src, m[0], _fs(m[1])))
    universe = set(alphabet)
    _, last_winner, last_losers = seq[-1]
    rows = [
        OrderedPartition((universe - {last_winner}, {last_winner})),
        OrderedPartition((universe - last_losers, last_losers)),
    ]
    t = 0
    types = [0]
    states = [(rows[0].snapshot(), rows[1].snapshot())]
    for j in range(len(seq) - 2, -1, -1):
        step, winner, losers = seq[j]
        if winner != seq[j + 1][1]:
            t = 1 - t
        _winner_row_rewind(rows[t], winner, step)
        _loser_row_rewind(rows[1 - t], winner, losers, step)
        types.append(t)
        states.append((rows[0].snapshot(), rows[1].snapshot()))
    types.reverse()
    knowledge = (rows[0].snapshot(), rows[1].snapshot())
    return (knowledge, tuple(types), states) if trace else (knowledge, tuple(types))


def _seeded_recover_perm_moves(moves, n, trace=False):
    items = []
    for src, move in enumerate(moves, 1):
        if isinstance(move, ZorichMove):
            items.extend((src, losers) for _, losers in move.units())
        else:
            items.append((src, move))
    _, item = items[-1]
    last = {item[0]} if isinstance(item, tuple) else item
    part = OrderedPartition((set(range(1, n + 1)) - last, last))
    labels = tuple(range(1, n + 1))
    history = [part.snapshot()] if trace else None
    for src, item in reversed(items[:-1]):
        if isinstance(item, tuple):
            k, p = item
            labels = type1_shift(labels, k, -p)
            _winner_row_rewind(part, labels[k - 1], src)
        else:
            _loser_row_rewind(part, labels[-1], {labels[x - 1] for x in item}, src)
        if trace:
            history.append(recovery._at_positions(part, labels))
    blocks = recovery._at_positions(part, labels)
    return (blocks, history) if trace else blocks


def _pair_outcome(recover, moves, alphabet, trace):
    try:
        got = recover(moves, alphabet, trace=trace)
    except Unrealizable as exc:
        return exc.step, exc.reason
    if isinstance(got[0], PartiallyOrderedPair):  # recover_pair's own forms, read as the reference's
        knowledge = (got[0].q0, got[0].q1)
        return (knowledge, got[1], [(h.q0, h.q1) for h in got[2]]) if trace else (knowledge, got[1])
    return got


def _random_block(draw, symbols, winner):
    """A ZorichMove with max_count at most 6 whose losers are drawn from ``symbols``."""
    losers = _fs(draw(st.sets(st.sampled_from(symbols), min_size=1)))
    max_count = draw(st.integers(1, 6))
    losers_max = losers if max_count == 1 else _fs(draw(st.sets(st.sampled_from(sorted(losers)), min_size=1)))
    return ZorichMove(winner, losers, max_count, losers_max, losers - losers_max)


@st.composite
def _records(draw):
    """A pair or permutation record from a simulated walk, plain or grouped by
    type runs, with up to two entries perturbed: a block's max_count set to
    1..6, or the entry replaced by a random block or type-1 power."""
    flavor = draw(st.sampled_from(["pair", "permutation"]))
    n = draw(st.integers(3, 7))
    image = tuple(draw(st.permutations(range(1, n + 1))))
    runs = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 3 * n)), min_size=1, max_size=6))
    types = [t for t, length in runs for _ in range(length)]
    if flavor == "pair":
        start = make_pair(range(1, n + 1), image)
        assume(is_irreducible_pair(start))
        path = simulate_pair(start, types)
    else:
        start = Permutation(image)
        assume(is_irreducible_perm(start))
        path = simulate_perm(start, types)
    moves = list(accelerate(path, _type_runs(types)).moves if draw(st.booleans()) else path.moves)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(moves) - 1))
        m = moves[j]
        kind = draw(st.sampled_from(["count", "block", "power"]))
        if kind == "count" and isinstance(m, ZorichMove) and len(m.losers) > 1:
            moves[j] = ZorichMove(m.winner, m.losers, draw(st.integers(1, 6)), m.losers_max, m.losers - m.losers_max)
        elif kind == "power" and flavor == "permutation":
            moves[j] = (draw(st.integers(1, n - 1)), draw(st.integers(1, 2 * n)))
        elif flavor == "pair":
            winner = draw(st.integers(1, n))
            moves[j] = _random_block(draw, [s for s in range(1, n + 1) if s != winner], winner)
        else:
            moves[j] = _random_block(draw, list(range(1, n)), n)
    return flavor, n, moves


@given(_records(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_rewinding_from_one_block_matches_the_seeded_loops(record, trace):
    # Knowledge, types, trace and (step, reason) are those of the seeded,
    # fully expanded loops, so a block's repeated units rewind once per run.
    flavor, n, moves = record
    if flavor == "pair":
        alphabet = tuple(range(1, n + 1))
        got = _pair_outcome(recover_pair, moves, alphabet, trace)
        assert got == _pair_outcome(_seeded_recover_pair, moves, alphabet, trace)
    else:
        got = _outcome(recover_perm_moves, moves, n, trace)
        assert got == _outcome(_seeded_recover_perm_moves, moves, n, trace)


def test_a_block_rewinds_a_bounded_number_of_times(monkeypatch):
    # the 99-byte file [[1, E, E], [0, 1, 0], [0, 0, 1]]: E units of winner 1
    # losing 2 and 3 rewind three times, and still report one type per unit
    rewinds = []
    rewind = recovery._loser_row_rewind
    monkeypatch.setattr(recovery, "_loser_row_rewind", lambda *args: rewinds.append(1) or rewind(*args))
    big = 10**6
    move = ZorichMove(1, _fs({2, 3}), big, _fs({2, 3}))
    pop, types = recover_pair([move], (1, 2, 3))
    assert (pop.q0, pop.q1) == ((_fs({2, 3}), _fs({1})), (_fs({1}), _fs({2, 3})))
    assert types == (0,) * big and len(rewinds) == 3
    blocks = recover_perm_moves([ZorichMove(3, _fs({1, 2}), big, _fs({1, 2}))], 3)
    assert blocks == (_fs({3}), _fs({1, 2})) and len(rewinds) == 6
