from __future__ import annotations

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ietrewind import rauzy
from ietrewind.core import Pair, Permutation, is_irreducible_perm, lift_perm, make_pair, perm_power, project
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


# --- label stepping against the single steps ---------------------------------

def _unlinked(linked) -> tuple:
    """A row kept as [symbol -> next, symbol -> previous, last symbol], in order."""
    _, before, last = linked
    row = [last]
    while row[-1] in before and len(row) <= len(before):
        row.append(before[row[-1]])
    return tuple(reversed(row))


def _image(top, bottom) -> tuple:
    """The permutation of a top row of labels by position and a linked bottom row."""
    labels = [ord(s) for s in top] if type(top) is str else top
    slot = {label: j for j, label in enumerate(_unlinked(bottom), 1)}
    return tuple(slot[label] for label in labels)


def _walk_reference(start, rng, target):
    """walk_until_complete as it was written on the single steps, kept as the reference."""
    is_pair = isinstance(start, Pair)
    labels = tuple(range(1, start.n + 1))
    state, types, winners, seen, stretches = start, [], [], set(), 0
    while len(types) < rauzy.MAX_WALK_MOVES:
        t = rng.randint(0, 1)
        state, move = (rauzy_step_pair if is_pair else rauzy_step_perm)(state, t)
        if type(move) is tuple:  # a type-1 move (k, 1) wins with the label at k
            winners.append(labels[move[0] - 1])
            labels = type1_shift(labels, move[0])
        else:
            winners.append(move.winner if is_pair else labels[-1])
        types.append(t)
        seen.add(winners[-1])
        if len(seen) == start.n:
            stretches, seen = stretches + 1, set()
        if stretches >= target:
            return types, winners
    raise ValueError(f"no {target}-complete path within {rauzy.MAX_WALK_MOVES} moves")


_STARTS = st.integers(3, 12).flatmap(lambda n: st.permutations(range(1, n + 1))).filter(
    lambda image: is_irreducible_perm(Permutation(tuple(image))))


@given(_STARTS, st.lists(st.integers(0, 1), max_size=60), st.booleans(), st.integers(0, 2**32), st.integers(1, 2))
@settings(deadline=None, max_examples=150)
def test_label_stepping_matches_the_single_steps(image, types, pair_flavor, seed, target):
    n = len(image)
    perm = Permutation(tuple(image))
    if pair_flavor:  # symbols that are not positions, and an alphabet order that is neither row's
        alphabet = tuple(f"s{i}" for i in range(n))
        start = lift_perm(perm, alphabet[::2] + alphabet[1::2])
        rows = (rauzy._linked(start.row0), rauzy._linked(start.row1))
        runs = [(rauzy._pair_steps(rows, types), lambda: (_unlinked(rows[0]), _unlinked(rows[1])))]
        step, state_of = rauzy_step_pair, (lambda pair: (pair.row0, pair.row1))
    else:  # the top row as a str of chr(label), and as the tuple kept past chr's range
        start = perm
        runs = []
        for top in ("".join(map(chr, range(1, n + 1))), tuple(range(1, n + 1))):
            rows = [top, rauzy._linked(tuple(perm.inverse().image))]
            runs.append((rauzy._perm_steps(rows, types), lambda rows=rows: _image(*rows)))
        step, state_of = rauzy_step_perm, (lambda p: p.image)
    states = [start]
    for t in types:
        states.append(step(states[-1], t)[0])
    for steps, label_state in runs:
        for (move, _), t, before, after in zip(steps, types, states, states[1:]):
            assert move == step(before, t)[1]
            assert label_state() == state_of(after)
    path = (simulate_pair if pair_flavor else simulate_perm)(start, types)
    assert path.states == tuple(states)
    assert list(path.moves) == [step(s, t)[1] for s, t in zip(states, types)]
    # the walk steps on labels too, and draws and stops as the single-step loop did
    try:
        expected = _walk_reference(start, random.Random(seed), target)
    except ValueError:
        with pytest.raises(ValueError):
            walk_until_complete(start, random.Random(seed), target)
    else:
        assert walk_until_complete(start, random.Random(seed), target) == expected


def test_simulate_checks_irreducibility_once_and_each_type():
    with pytest.raises(NonIrreducible):
        simulate_pair(make_pair((1, 2, 3), (1, 3, 2)), [0])
    with pytest.raises(NonIrreducible):
        simulate_perm(Permutation((1, 3, 2)), [1])
    for simulate, start in ((simulate_pair, make_pair((1, 2, 3), (3, 2, 1))), (simulate_perm, Permutation((3, 2, 1)))):
        with pytest.raises(ValueError, match="move type must be 0 or 1"):
            simulate(start, [0, 1, 2])


def test_a_simulated_path_holds_one_move_object_per_distinct_move():
    # the steppers hand out each distinct unit move, and each type-1 (k, 1), once
    rng = random.Random(3)
    for n in range(4, 24):
        image = list(range(1, n + 1))
        while not is_irreducible_perm(Permutation(tuple(image))):
            rng.shuffle(image)
        types = [rng.randint(0, 1) for _ in range(40 * n)]
        pair_moves = simulate_pair(lift_perm(Permutation(tuple(image)), range(1, n + 1)), types).moves
        perm_moves = simulate_perm(Permutation(tuple(image)), types).moves
        walked = rauzy.walk_path(Permutation(tuple(image)), rng, 2)[0].moves
        for moves in (pair_moves, [m for m in perm_moves if type(m) is not tuple], walked):
            assert len({id(m) for m in moves}) == len(set(moves)) < len(moves), n
        powers = [m for m in perm_moves if type(m) is tuple]
        assert len({id(m) for m in powers}) == len(set(powers)) <= n - 1
