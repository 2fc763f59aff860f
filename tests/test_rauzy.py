from __future__ import annotations

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ietrewind.core import Permutation, lift_perm, make_pair, perm_power, project
from ietrewind.lifting import delta
from ietrewind.matrices import determinant, identity, matmul, mat_product
from ietrewind.rauzy import (
    MalformedMatrix,
    NonIrreducible,
    c_completeness,
    decode_A,
    is_complete,
    rauzy_step_pair,
    rauzy_step_perm,
    record_matrix,
    simulate_pair,
    simulate_perm,
    type1_matrix,
    type1_shift,
    walk_until_complete,
)
from ietrewind.zorich import ZorichMove, extract_move


def test_pair_step_type0_moves_loser_behind_winner():
    pair = make_pair((1, 2, 3), (3, 2, 1))
    nxt, record = rauzy_step_pair(pair, 0)
    theta = record_matrix(record, pair.alphabet)
    # winner 3 (right end of row 0) defeats 1 (right end of row 1)
    assert record.winner == 3 and record.losers == frozenset({1})
    assert nxt.row0 == (1, 2, 3)
    assert nxt.row1 == (3, 1, 2)
    assert theta == ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    assert extract_move(theta, pair.alphabet) == ZorichMove(3, frozenset({1}), 1, frozenset({1}))


def test_pair_step_type1_mirror():
    pair = make_pair((1, 2, 3), (3, 2, 1))
    nxt, record = rauzy_step_pair(pair, 1)
    theta = record_matrix(record, pair.alphabet)
    assert record.winner == 1 and record.losers == frozenset({3})
    assert nxt.row0 == (1, 3, 2)
    assert nxt.row1 == (3, 2, 1)
    assert theta == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert extract_move(theta, pair.alphabet) == ZorichMove(1, frozenset({3}), 1, frozenset({3}))


def test_step_requires_irreducible():
    with pytest.raises(NonIrreducible):
        rauzy_step_pair(make_pair((1, 2, 3), (1, 3, 2)), 0)
    with pytest.raises(NonIrreducible):
        rauzy_step_perm(Permutation((1, 3, 2)), 1)


def test_perm_steps_match_projected_pair_steps():
    for image in ((3, 2, 1), (4, 3, 2, 1), (2, 4, 1, 3), (3, 1, 4, 2)):
        for t in (0, 1):
            perm = Permutation(image)
            pair = lift_perm(perm, tuple(range(1, len(image) + 1)))
            stepped_perm, _ = rauzy_step_perm(perm, t)
            stepped_pair, _ = rauzy_step_pair(pair, t)
            assert project(stepped_pair) == stepped_perm


def test_type1_matrix_small_case():
    assert type1_matrix(3, 1) == ((1, 1, 0), (0, 0, 1), (0, 1, 0))
    assert type1_matrix(4, 2) == (
        (1, 0, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    )
    with pytest.raises(ValueError):
        type1_matrix(4, 4)


def test_simulate_pair_shapes_and_states():
    start = make_pair((1, 2, 3, 4), (4, 3, 2, 1))
    path = simulate_pair(start, [0, 1, 0, 0, 1])
    assert len(path.moves) == len(path.matrices) == 5
    assert len(path.states) == 6
    assert path.states[0] == start
    assert path.index == start.alphabet


_A_SHIFT_1 = (
    (1, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0),
)
_A_CYCLE_1 = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, 0, 0, 0, 1),
)
_A_SHIFT_2 = (
    (1, 1, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
)
_A_CYCLE_2 = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, 0, 1, 0, 1),
)


def test_decode_A_on_known_products():
    assert decode_A(_A_SHIFT_1) == (1, 1, 1)
    assert decode_A(_A_CYCLE_1) == (0, None, 1)
    assert decode_A(_A_SHIFT_2) == (1, 1, 2)
    assert decode_A(_A_CYCLE_2) == (0, None, 1)
    assert extract_move(_A_CYCLE_2) == ZorichMove(5, frozenset({1, 3}), 1, frozenset({1, 3}))


@given(st.integers(3, 7), st.data())
@settings(deadline=None, max_examples=80)
def test_decode_A_recovers_type1_powers(n, data):
    k = data.draw(st.integers(1, n - 1))
    p = data.draw(st.integers(1, 5))
    mat = mat_product([type1_matrix(n, k)] * p, n)
    assert decode_A(mat) == (1, k, p)
    assert determinant(mat) in (-1, 1)


@given(st.integers(3, 7), st.data())
@settings(deadline=None, max_examples=80)
def test_decode_A_recovers_type0_products(n, data):
    losers = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=6))
    mats = [
        tuple(
            tuple((1 if i == j else 0) + (1 if (i == n - 1 and j == l - 1) else 0) for j in range(n))
            for i in range(n)
        )
        for l in losers
    ]
    prod = mat_product(mats, n)
    assert decode_A(prod) == (0, None, 1)
    counts = Counter(losers)
    assert prod[n - 1][:n - 1] == tuple(counts[j] for j in range(1, n))
    top = max(counts.values())
    if min(counts.values()) < top - 1:  # no single same-winner run has these counts
        with pytest.raises(MalformedMatrix):
            extract_move(prod)
        return
    move = extract_move(prod)
    assert move.winner == n and move.steps == len(losers)
    assert move.losers == set(losers)
    assert move.losers_max == {l for l, c in counts.items() if c == top}


def test_decode_A_rejects_identity_and_junk():
    with pytest.raises(MalformedMatrix):
        decode_A(identity(4))
    with pytest.raises(MalformedMatrix):
        decode_A(((2, 0), (0, 1)))


def test_simulated_perm_matrices_decode_back():
    path = simulate_perm(Permutation((4, 3, 2, 1)), [0, 1, 1, 0, 1])
    for mat, move, t in zip(path.matrices, path.moves, path.types):
        got, k, p = decode_A(mat)
        assert got == t
        assert p == 1
        if t == 1:
            assert k == move[0]


def test_completeness_counting():
    alphabet = (1, 2, 3)
    assert is_complete([1, 2, 3], alphabet)
    assert not is_complete([1, 2, 1], alphabet)
    count, bounds = c_completeness([1, 2, 3, 3, 1, 2, 1], alphabet)
    assert count == 2
    assert bounds == (3, 6)
    assert c_completeness([], alphabet) == (0, ())


def test_visitation_product_counts_all_moves():
    start = make_pair((1, 2, 3, 4), (4, 3, 2, 1))
    types = [0, 1, 1, 0, 1, 0, 0, 1]
    path = simulate_pair(start, types)
    total = mat_product(path.matrices, start.n)
    # one off-diagonal unit per single move
    assert sum(sum(row) for row in total) - sum(total[i][i] for i in range(4)) >= len(types)
    assert determinant(total) in (-1, 1)


def test_type1_matrix_powers_in_closed_form():
    for n in range(3, 9):
        for k in range(1, n):
            assert type1_matrix(n, k, 0) == identity(n)
            for p in range(1, 3 * n + 1):
                power = mat_product([type1_matrix(n, k)] * p, n)
                assert type1_matrix(n, k, p) == power
                assert decode_A(power) == (1, k, p)
    with pytest.raises(ValueError):
        type1_matrix(4, 2, -1)


def _type1_matrix_per_entry(n, k, p):
    # the definition type1_matrix had before it shared identity rows
    m = n - k
    return tuple(
        tuple(
            (1 if i == j else 0) if i < k or j < k
            else (1 if j == k else (p + n - j) // m) if i == k
            else (1 if j > k and (j - i - p) % m == 0 else 0)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


def test_type1_matrix_matches_the_per_entry_definition():
    rng = random.Random(2025)
    for _ in range(400):
        n = rng.randint(2, 12)
        k = rng.randint(1, n - 1)
        p = rng.randint(0, 40)
        got = type1_matrix(n, k, p)
        assert got == _type1_matrix_per_entry(n, k, p), (n, k, p)
        assert all(got[i] is identity(n)[i] for i in range(k - 1))
        assert all(row in identity(n) for row in got[k:])


def test_type1_shift_is_a_power_of_delta():
    for n in range(2, 8):
        for k in range(1, n):
            for p in range(3 * n):
                assert type1_shift(range(1, n + 1), k, p) == perm_power(delta(k, n), p).image


def test_decode_A_rejects_a_large_entry_quickly():
    mat = [list(row) for row in identity(6)]
    mat[2][4] = 10**5
    begin = time.perf_counter()
    with pytest.raises(MalformedMatrix):
        decode_A(mat)
    assert time.perf_counter() - begin < 0.5


@pytest.mark.parametrize(
    "start", [make_pair((1, 2, 3, 4, 5), (5, 3, 1, 4, 2)), Permutation((4, 1, 5, 3, 2))]
)
def test_walk_until_complete_counts_as_c_completeness(start):
    for seed in range(20):
        target = seed % 4
        types, winners = walk_until_complete(start, random.Random(seed), target)
        assert len(types) == len(winners) >= 1
        count, _ = c_completeness(winners, range(1, 6))
        assert count >= target
        assert len(types) == 1 or c_completeness(winners[:-1], range(1, 6))[0] < target
        # the same draws give the same types
        rng = random.Random(seed)
        assert types == [rng.randint(0, 1) for _ in types]


def test_walk_until_complete_labels_perm_winners_like_the_lifted_pair():
    perm = Permutation((4, 1, 5, 3, 2))
    types, winners = walk_until_complete(perm, random.Random(5), 3)
    pair_path = simulate_pair(lift_perm(perm, (1, 2, 3, 4, 5)), types)
    assert winners == [m.winner for m in pair_path.moves]


def test_walk_until_complete_gives_up_at_the_cap(monkeypatch):
    from ietrewind import rauzy

    monkeypatch.setattr(rauzy, "MAX_WALK_MOVES", 10)
    with pytest.raises(ValueError, match="no 50-complete path within 10 moves"):
        walk_until_complete(Permutation((3, 2, 1)), random.Random(0), 50)
