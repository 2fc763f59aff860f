from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ietrewind.core import Permutation, lift_perm, make_pair
from ietrewind.matrices import mat_product
from ietrewind.rauzy import simulate_pair, simulate_perm
from ietrewind.zorich import (
    MixedTypeBlock,
    ZorichMove,
    accelerate,
    breakup,
    extract_move,
    winners_with_multiplicity,
)

_ANCHOR = make_pair((1, 2, 3, 4, 5), (5, 4, 3, 2, 1))


def test_accelerate_validates_grouping():
    path = simulate_pair(_ANCHOR, [1] * 6)
    with pytest.raises(ValueError):
        accelerate(path, [4, 3])
    with pytest.raises(ValueError):
        accelerate(path, [6, 0])
    for lengths in ([4.9, 2.0], [4.0, 2], ["4", "2"], [True, 5]):  # lengths are exact ints
        with pytest.raises(ValueError):
            accelerate(path, lengths)
    z = accelerate(path, [4, 2])
    assert z.grouping == (4, 2)
    assert len(z.matrices) == 2
    with pytest.raises(ValueError):  # its moves are blocks already
        accelerate(z, [1, 1])


def test_accelerate_rejects_mixed_winner_blocks():
    path = simulate_pair(_ANCHOR, [1, 1, 0])  # third move changes the winner
    with pytest.raises(MixedTypeBlock):
        accelerate(path, [3])
    accelerate(path, [2, 1])


def test_accelerate_rejects_mixed_type_perm_blocks():
    path = simulate_perm(Permutation((4, 3, 2, 1)), [0, 1, 0])
    with pytest.raises(MixedTypeBlock):
        accelerate(path, [2, 1])
    accelerate(path, [1, 1, 1])


def test_six_move_block_decomposition():
    path = simulate_pair(_ANCHOR, [1] * 6)
    z = accelerate(path, [6])
    assert z.matrices[0][0] == (1, 1, 1, 2, 2)
    move = extract_move(z.matrices[0], _ANCHOR.alphabet)
    assert move.winner == 1
    assert move.losers == frozenset({2, 3, 4, 5})
    assert move.max_count == 2
    assert move.losers_max == frozenset({4, 5})
    assert move.losers_min == frozenset({2, 3})
    assert move.steps == 6
    parts = breakup(z.matrices[0], _ANCHOR.alphabet)
    assert len(parts) == 2
    assert parts[0][0] == (1, 1, 1, 1, 1)
    assert parts[1][0] == (1, 0, 0, 1, 1)
    assert mat_product(parts, 5) == z.matrices[0]


def test_split_grouping_matches_hand_products():
    path = simulate_pair(_ANCHOR, [1] * 6)
    z = accelerate(path, [4, 2])
    assert z.matrices[0][0] == (1, 1, 1, 1, 1)
    assert z.matrices[1][0] == (1, 0, 0, 1, 1)
    assert [m.steps for m in z.moves] == [4, 2]
    assert z.moves[0].losers == frozenset({2, 3, 4, 5})
    assert z.moves[1].losers == frozenset({4, 5})


def test_extract_move_rejects_non_products():
    from ietrewind.rauzy import MalformedMatrix

    with pytest.raises(MalformedMatrix):
        extract_move(((1, 0), (0, 1)))
    with pytest.raises(MalformedMatrix):
        extract_move(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(MalformedMatrix):
        extract_move(((1, 1), (0, 1), (0, 0)))  # not square
    bad = ((1, 0, 0), (1, 1, 1), (1, 0, 1))  # off-diagonal support in two rows
    with pytest.raises(MalformedMatrix):
        extract_move(bad)
    gap = ((1, 3, 1), (0, 1, 0), (0, 0, 1))  # counts 3 and 1 are not adjacent
    with pytest.raises(MalformedMatrix):
        extract_move(gap)
    # negative counts (each once read as a move: -1 alone, -5 and -4 as adjacent values)
    for negative in (((1, -1, 0), (0, 1, 0), (0, 0, 1)), ((1, -5, -4), (0, 1, 0), (0, 0, 1))):
        with pytest.raises(MalformedMatrix):
            extract_move(negative)


@st.composite
def _same_winner_run(draw):
    n = draw(st.integers(3, 6))
    symbols = list(range(1, n + 1))
    rng = draw(st.randoms(use_true_random=False))
    row0, row1 = list(symbols), list(symbols)
    rng.shuffle(row0)
    rng.shuffle(row1)
    pair = make_pair(tuple(row0), tuple(row1))
    t = draw(st.integers(0, 1))
    length = draw(st.integers(1, 2 * n))
    return pair, t, length


@given(_same_winner_run())
@settings(deadline=None, max_examples=80)
def test_breakup_reconstructs_any_same_winner_product(case):
    from ietrewind.core import is_irreducible_pair
    from hypothesis import assume

    pair, t, length = case
    assume(is_irreducible_pair(pair))
    # repeating one type keeps the winning row fixed, so the winner never changes
    path = simulate_pair(pair, [t] * length)
    winner = path.moves[0].winner
    assert all(m.winner == winner for m in path.moves)
    z = accelerate(path, [length])
    assert mat_product(breakup(z.matrices[0], pair.alphabet), pair.n) == z.matrices[0]
    move = extract_move(z.matrices[0], pair.alphabet)
    assert move.steps == length
    assert move.winner == winner


def test_winner_multiplicities_pair_flavor():
    path = simulate_pair(_ANCHOR, [1, 1, 1, 1, 0, 0, 1])
    z = accelerate(path, [4, 2, 1])
    assert winners_with_multiplicity(z) == [(1, 4), (5, 2), (3, 1)]


def test_winner_multiplicities_perm_flavor_match_lift():
    from ietrewind.lifting import lift_zorich_path

    start = Permutation((5, 4, 3, 2, 1))
    types = [1, 1, 0, 1, 0, 0, 1, 1]
    path = simulate_perm(start, types)
    grouping = [2, 1, 1, 2, 2]
    z = accelerate(path, grouping)
    lifted, _ = lift_zorich_path(z)
    got = winners_with_multiplicity(z)
    expected = [
        (extract_move(mat, lifted.index).winner, length)
        for mat, length in zip(lifted.matrices, grouping)
    ]
    assert got == expected


def test_zorich_moves_are_values():
    a = ZorichMove(3, frozenset({1, 2}), 2, frozenset({1}))
    b = ZorichMove(3, frozenset([2, 1]), 2, frozenset([1]), frozenset())  # the default losers_min, given
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.losers_min == frozenset()
    for other in (
        ZorichMove(4, frozenset({1, 2}), 2, frozenset({1})),
        ZorichMove(3, frozenset({1}), 2, frozenset({1})),
        ZorichMove(3, frozenset({1, 2}), 1, frozenset({1})),
        ZorichMove(3, frozenset({1, 2}), 2, frozenset({2})),
        ZorichMove(3, frozenset({1, 2}), 2, frozenset({1}), frozenset({2})),
    ):
        assert a != other and not a == other
    # not a tuple, so that a type-1 (k, p) item still tells itself apart
    assert not isinstance(a, tuple)
    assert a != (3, frozenset({1, 2}), 2, frozenset({1}), frozenset())
    assert repr(a) == (
        "ZorichMove(winner=3, losers=frozenset({1, 2}), max_count=2, "
        "losers_max=frozenset({1}), losers_min=frozenset())"
    )
