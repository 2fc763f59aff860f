"""The ambiguity construction and its end-state toolkit."""
from __future__ import annotations

import time

import pytest

from ietrewind import cli
from ietrewind.core import inverse
from ietrewind.oracle import forward_simulate
from ietrewind.rauzy import c_completeness
from ietrewind.recovery import PartiallyOrderedPair, enumerate_agreeing, recover_pair
from ietrewind.sharpness import (
    BadN,
    PivotWitness,
    PreconditionFailed,
    build_ambiguous_path,
    halving_path,
    has_definitive_positions,
    pivot_form,
    refresh_cycle_path,
)

_fs = frozenset

_ALPHA8 = tuple(range(1, 9))


def _singleton_row(letters):
    return tuple(_fs({a}) for a in letters)


# End state of the first complete stretch for n = 8 (also where the refresh
# stretch lands), the state after the first pair extraction, and the start.
_P1 = PartiallyOrderedPair(
    _ALPHA8,
    _singleton_row((8, 1, 3, 5, 7, 6, 4, 2)),
    (_fs({1, 3, 5, 7}), _fs({2}), _fs({4}), _fs({6}), _fs({8})),
)
_P2 = PartiallyOrderedPair(
    _ALPHA8,
    _singleton_row((8, 3, 1, 5, 7, 6, 4, 2)),
    (_fs({1, 5, 7}), _fs({2}), _fs({3}), _fs({4}), _fs({6}), _fs({8})),
)
_P3 = PartiallyOrderedPair(
    _ALPHA8,
    _singleton_row((8, 7, 3, 1, 5, 6, 4, 2)),
    (_fs({1, 5}), _fs({2}), _fs({7}), _fs({3}), _fs({4}), _fs({6}), _fs({8})),
)


def test_eight_letter_construction_checkpoints():
    result = build_ambiguous_path(8)
    assert result.depth == 2
    assert result.unresolved == 2
    assert len(result.moves) == 44
    assert [label for label, _ in result.checkpoints] == [
        "segment",
        "refresh0",
        "pair0.0",
        "pair0.1",
    ]
    states = dict(result.checkpoints)  # each the two rows of the state, over the fixed alphabet
    assert states["segment"] == (_P1.q0, _P1.q1)
    assert states["refresh0"] == (_P1.q0, _P1.q1)
    assert states["pair0.0"] == (_P2.q0, _P2.q1)
    assert states["pair0.1"] == (_P3.q0, _P3.q1)
    assert result.start == _P3


def test_eight_letter_record_rewinds_to_its_own_start():
    result = build_ambiguous_path(8)
    pop, types = recover_pair(result.moves, alphabet=result.start.alphabet)
    assert pop == result.start
    assert types == result.types


def test_eight_letter_ambiguity_is_genuine():
    result = build_ambiguous_path(8)
    agreeing = enumerate_agreeing(result.start)
    assert len(agreeing) == 2
    first, second = agreeing
    assert second != inverse(first)  # not explained away by inversion
    for cand in agreeing:
        assert forward_simulate(cand, result.moves, result.types)


@pytest.mark.parametrize(
    "n, depth, length, unresolved",
    [
        (8, 2, 44, 2),
        (9, 2, 55, 2),
        (10, 2, 71, 2),
        (12, 2, 93, 3),
        (16, 3, 293, 2),
        (17, 3, 329, 2),
        (31, 3, 1093, 3),
        (32, 4, 1648, 2),
    ],
)
def test_construction_sweep(n, depth, length, unresolved):
    result = build_ambiguous_path(n)
    assert result.depth == depth
    assert len(result.moves) == length
    assert result.unresolved == unresolved
    winners = [m.winner for m in result.moves]
    stretches, _ = c_completeness(winners, tuple(range(1, n + 1)))
    assert stretches == depth


def test_construction_scales_to_256_letters():
    # A rewind step touches only the blocks of its winner and loser, so the
    # 200k-move record for n=256 builds in a few seconds; when every step
    # rebuilt all n blocks it took 14-16 s.
    begin = time.perf_counter()
    result = build_ambiguous_path(256)
    elapsed = time.perf_counter() - begin
    assert (result.depth, len(result.moves), result.unresolved) == (7, 200293, 2)
    assert elapsed < 8.0
    pop, types = recover_pair(result.moves, alphabet=result.start.alphabet)
    assert pop == result.start
    assert types == result.types


def test_construction_rejects_small_alphabets():
    for n in (3, 7):
        with pytest.raises(BadN):
            build_ambiguous_path(n)


def test_construction_is_deterministic():
    assert build_ambiguous_path(9) == build_ambiguous_path(9)


def test_pivot_form_recognition():
    witness = pivot_form(_P3)
    assert witness is not None
    assert witness.pivots == (8, 2)
    assert pivot_form(_P1).pivots == (8, 2)
    # an interior unresolved block is out of form
    off = PartiallyOrderedPair(
        (1, 2, 3, 4),
        (_fs({1}), _fs({2, 3}), _fs({4})),
        (_fs({1, 2, 3, 4}),),
    )
    assert pivot_form(off) is None
    # hinges must cross between the rows
    uncrossed = PartiallyOrderedPair(
        (1, 2, 3),
        _singleton_row((1, 2, 3)),
        _singleton_row((1, 2, 3)),
    )
    assert pivot_form(uncrossed) is None


def test_refresh_cycle_golden():
    moves = refresh_cycle_path(pivot_form(_P3))
    assert len(moves) == 22
    # every letter settled in both rows wins; the unresolved pair never does
    assert {w for w, _ in moves} == set(_ALPHA8) - {1, 5}


def test_refresh_cycle_is_complete_once_settled():
    pop = PartiallyOrderedPair(
        (1, 2, 3),
        _singleton_row((1, 2, 3)),
        _singleton_row((3, 2, 1)),
    )
    moves = refresh_cycle_path(pivot_form(pop))
    assert len(moves) == 5
    assert {w for w, _ in moves} == {1, 2, 3}


def test_refresh_cycle_needs_full_coverage():
    pop = PartiallyOrderedPair(
        (1, 2, 3),
        (_fs({1, 2}), _fs({3})),
        (_fs({1, 2}), _fs({3})),
    )
    with pytest.raises(PreconditionFailed):
        refresh_cycle_path(PivotWitness(pop=pop, pivots=(3, 3)))


def test_halving_reaches_the_construction_start():
    moves, start = halving_path(pivot_form(_P1), 0)
    assert len(moves) == 21
    assert start.pop == _P3
    assert start.pivots == (8, 2)


def test_a_path_holds_one_move_object_per_distinct_move():
    # the builder makes each distinct unit move once and pushes that object
    for n in range(8, 41):
        moves = build_ambiguous_path(n).moves
        assert len({id(m) for m in moves}) == len(set(moves)) < len(moves), n
    # the stretch builders still give plain (winner, loser) pairs
    for moves in (refresh_cycle_path(pivot_form(_P3)), halving_path(pivot_form(_P1), 0)[0]):
        assert {type(m) for m in moves} == {tuple} and {len(m) for m in moves} == {2}
        assert {type(s) for m in moves for s in m} == {int}


def test_the_runs_are_the_moves_as_written_and_replayed():
    # sharpness replays and writes the runs; they must be the unit moves
    # and types the result carries, and lay out the same records
    for n in range(8, 65):
        result = build_ambiguous_path(n)
        units = [(winner, loser, t) for winner, losers, t in result.runs for loser in losers]
        assert {(m.max_count, len(m.losers)) for m in result.moves} == {(1, 1)}, n
        assert units == [(m.winner, *m.losers, t) for m, t in zip(result.moves, result.types)], n
        assert len(units) == len(result.moves) == len(result.types), n
        assert c_completeness([m.winner for m in result.moves], result.start.alphabet)[0] == result.depth, n
        position = {s: i for i, s in enumerate(result.start.alphabet)}
        from_runs = cli._Records(result.moves, result.types, position, result.runs)
        from_moves = cli._Records(result.moves, result.types, position)
        assert "".join(cli._records_json(from_runs)) == "".join(cli._records_json(from_moves)), n


def test_halving_needs_enough_private_letters():
    with pytest.raises(PreconditionFailed):
        halving_path(pivot_form(_P3), 0)


def test_definitive_positions_inside_blocks():
    pop = PartiallyOrderedPair(
        (1, 2, 3, 4),
        (_fs({1}), _fs({2}), _fs({3, 4})),
        (_fs({3}), _fs({1, 2}), _fs({4})),
    )
    assert len(enumerate_agreeing(pop)) == 2
    assert has_definitive_positions(pop) == {0: _fs({3, 4}), 1: _fs()}

    pinned_both = PartiallyOrderedPair(
        (1, 2, 3, 4),
        (_fs({1}), _fs({2}), _fs({3, 4})),
        (_fs({2}), _fs({1, 3}), _fs({4})),
    )
    assert len(enumerate_agreeing(pinned_both)) == 1
    assert has_definitive_positions(pinned_both) == {0: _fs({3, 4}), 1: _fs({1, 3})}


def test_definitive_positions_need_a_candidate():
    pop = PartiallyOrderedPair(
        (1, 2, 3),
        _singleton_row((1, 2, 3)),
        (_fs({1}), _fs({2, 3})),
    )
    with pytest.raises(PreconditionFailed):
        has_definitive_positions(pop)
