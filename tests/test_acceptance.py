"""Acceptance checks: one test per criterion, fixed seeds, stated budgets."""
from __future__ import annotations

import random
import time

from ietrewind.core import (
    Permutation,
    inverse,
    is_irreducible_pair,
    is_irreducible_perm,
    lift_perm,
    make_pair,
)
from ietrewind.lifting import lift_zorich_path
from ietrewind.matrices import determinant, mat_product
from ietrewind.oracle import brute_force_initial_pairs, forward_simulate
from ietrewind.rauzy import c_completeness, simulate_pair, simulate_perm, walk_until_complete
from ietrewind.recovery import (
    enumerate_agreeing,
    enumerate_agreeing_perms,
    enumerate_starting,
    recover_pair,
    recover_perm,
    uncertainty_profile,
    uniqueness_threshold,
)
from ietrewind.sharpness import build_ambiguous_path
from ietrewind.zorich import accelerate, breakup, verify_breakup

_fs = frozenset


def _random_irreducible_pair(rng, n):
    row0 = tuple(range(1, n + 1))
    row1 = list(row0)
    while True:
        rng.shuffle(row1)
        cand = make_pair(row0, tuple(row1))
        if is_irreducible_pair(cand):
            return cand


def _random_irreducible_perm(rng, n):
    image = list(range(1, n + 1))
    while True:
        rng.shuffle(image)
        cand = Permutation(tuple(image))
        if is_irreducible_perm(cand):
            return cand


# Shared surveys, generated once and reused across criteria.
_G: dict = {}


def _settling_survey():
    if "settle" not in _G:
        begin = time.monotonic()
        rng = random.Random(20260822)
        pair_runs = []
        perm_runs = []
        for i in range(300):
            n = rng.randint(3, 8)
            start = _random_irreducible_pair(rng, n)
            target = uniqueness_threshold(n)
            types, winners = walk_until_complete(start, rng, target)
            path = simulate_pair(start, types)
            pop, _, history = recover_pair(path.moves, alphabet=start.alphabet, trace=True)
            _, boundaries = c_completeness(winners, start.alphabet)
            pair_runs.append((start, pop, history, boundaries))
        for i in range(200):
            n = rng.randint(3, 8)
            start = _random_irreducible_perm(rng, n)
            target = uniqueness_threshold(n)
            types, _ = walk_until_complete(start, rng, target)
            path = simulate_perm(start, types)
            blocks = recover_perm(path.matrices)
            perm_runs.append((start, blocks))
        _G["settle"] = {
            "pairs": pair_runs,
            "perms": perm_runs,
            "elapsed": time.monotonic() - begin,
        }
    return _G["settle"]


def _brute_survey():
    if "brute" not in _G:
        begin = time.monotonic()
        rng = random.Random(4747)
        runs = []
        for i in range(100):
            n = rng.randint(3, 5)
            start = _random_irreducible_pair(rng, n)
            types = [rng.randint(0, 1) for _ in range(rng.randint(2, 8))]
            path = simulate_pair(start, types)
            report = brute_force_initial_pairs(path.moves, start.alphabet)
            runs.append((start, path, report))
        _G["brute"] = {"runs": runs, "elapsed": time.monotonic() - begin}
    return _G["brute"]


def test_criterion_1_worked_examples():
    begin = time.monotonic()

    pop_a, types_a = recover_pair([(1, {2, 3}), (4, {1, 5}), (6, {2, 3, 4})])
    count_a = len(enumerate_starting(pop_a))

    pop_b, types_b = recover_pair(
        [
            ("E", {"A", "B"}),
            ("C", {"E"}),
            ("D", {"C"}),
            ("C", {"D"}),
            ("E", {"C", "D"}),
            ("A", {"C", "D", "E"}),
            ("B", {"A"}),
        ]
    )
    starting_b = enumerate_starting(pop_b)

    mats = [
        ((1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 1, 0, 0, 0)),
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 1)),
        ((1, 1, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 1, 0, 1)),
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 3), (0, 0, 0, 0, 1)),
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 1, 1, 1)),
    ]
    blocks_partial, trace = recover_perm(mats[:4], trace=True)
    blocks_full = recover_perm(mats)

    moves_c = [
        (8, {1, 2, 3, 4, 6}),
        (7, {8}),
        (6, {7}),
        (5, {6}),
        (4, {5}),
        (3, {4}),
        (2, {3}),
        (1, {2}),
    ]
    pop_c, types_c = recover_pair(moves_c)
    starting_c = enumerate_starting(pop_c)
    count_c = len(starting_c)

    elapsed = time.monotonic() - begin
    assert elapsed < 1.0, f"worked examples took {elapsed:.2f}s"

    assert pop_a.q0 == (_fs({2, 3, 4}), _fs({6}), _fs({5}), _fs({1}))
    assert pop_a.q1 == (_fs({5, 6}), _fs({1}), _fs({4}), _fs({2, 3}))
    assert types_a == (0, 1, 0)
    assert count_a == 48

    assert pop_b.is_settled()
    settled = pop_b.settled_pair()
    assert settled.row0 == ("A", "B", "C", "D", "E")
    assert settled.row1 == ("E", "D", "C", "B", "A")
    assert set(starting_b) == {settled, inverse(settled)}

    assert blocks_partial == (_fs({2, 3, 5}), _fs({4}), _fs({1}))
    assert len(trace) == 4
    assert blocks_full == (_fs({3}), _fs({2}), _fs({5}), _fs({4}), _fs({1}))
    assert enumerate_agreeing_perms(blocks_full) == [Permutation((5, 2, 1, 4, 3))]

    assert types_c == (1, 0, 1, 0, 1, 0, 1, 0)
    # An exhaustive forward replay of every start whose row ends fit the first
    # move finds exactly these 288 starts (144 agreeing pairs and their inverses).
    assert pop_c.q0 == (_fs({8}), _fs({5}), _fs({7}), _fs({2, 4, 6}), _fs({1}), _fs({3}))
    assert pop_c.q1 == (_fs({1, 3, 5, 7}), _fs({2}), _fs({4}), _fs({6}), _fs({8}))
    assert count_c == 288
    # each start replays the record under the oracle's own stepper; an
    # inverse start plays it with every type flipped
    flipped_c = tuple(1 - t for t in types_c)
    unreplayed_c = [
        p
        for p in starting_c
        if not (forward_simulate(p, moves_c, types_c) or forward_simulate(p, moves_c, flipped_c))
    ]
    assert unreplayed_c == []


def test_criterion_2_matrix_identities():
    begin = time.monotonic()
    rng = random.Random(991)
    pair_paths = perm_paths = 0
    while pair_paths + perm_paths < 210:
        n = rng.randint(3, 8)
        length = rng.randint(4, 20)
        types = [rng.randint(0, 1) for _ in range(length)]
        if (pair_paths + perm_paths) % 2 == 0:
            start = _random_irreducible_pair(rng, n)
            path = simulate_pair(start, types)
            grouping = []
            for m in path.moves:
                if grouping and m.winner == last_winner:
                    grouping[-1] += 1
                else:
                    grouping.append(1)
                last_winner = m.winner
            z = accelerate(path, grouping)
            for mat in z.matrices:
                assert verify_breakup(mat, start.alphabet)
                assert mat_product(breakup(mat, start.alphabet), len(start.alphabet)) == mat
                assert determinant(mat) in (-1, 1)
            pair_paths += 1
        else:
            start = _random_irreducible_perm(rng, n)
            path = simulate_perm(start, types)
            z = accelerate(path, [1] * length)
            lifted, tau = lift_zorich_path(z)
            direct = simulate_pair(lift_perm(start, tuple(range(1, n + 1))), types)
            assert tuple(lifted.matrices) == tuple(direct.matrices)
            assert direct.states[-1].row0 == tau
            for mat in path.matrices:
                assert determinant(mat) in (-1, 1)
            perm_paths += 1
    elapsed = time.monotonic() - begin
    assert elapsed < 30.0, f"matrix identity sweep took {elapsed:.2f}s"


def test_criterion_3_complete_paths_settle():
    survey = _settling_survey()
    assert survey["elapsed"] < 120.0, f"settling survey took {survey['elapsed']:.2f}s"
    assert len(survey["pairs"]) == 300
    assert len(survey["perms"]) == 200
    for start, pop, _, _ in survey["pairs"]:
        assert pop.is_settled()
        settled = pop.settled_pair()
        assert settled in (start, inverse(start))
    for start, blocks in survey["perms"]:
        assert all(len(b) == 1 for b in blocks)
        image = [0] * start.n
        for value, block in enumerate(blocks, 1):
            image[next(iter(block)) - 1] = value
        assert Permutation(tuple(image)) == start


def test_criterion_4_enumeration_matches_brute_force():
    survey = _brute_survey()
    assert survey["elapsed"] < 300.0, f"brute-force survey took {survey['elapsed']:.2f}s"
    assert len(survey["runs"]) == 100
    for start, path, report in survey["runs"]:
        pop, _ = recover_pair(path.moves, alphabet=start.alphabet)
        expected = set(enumerate_starting(pop))
        found = {p for p, _ in report.realizers}
        assert found == expected
        assert start in found


def test_criterion_5_ambiguity_construction():
    begin = time.monotonic()
    for n in (8, 9, 12, 16):
        result = build_ambiguous_path(n)
        want_depth = n.bit_length() - 2  # floor(log2 n) - 1
        assert result.depth == want_depth
        assert result.unresolved == n >> want_depth
        winners = [m.winner for m in result.moves]
        stretches, _ = c_completeness(winners, tuple(range(1, n + 1)))
        assert stretches == want_depth
        agreeing = enumerate_agreeing(result.start, bound=n)
        assert len(agreeing) >= 2
        first = agreeing[0]
        mate = next(c for c in agreeing[1:] if c != inverse(first))
        types = [m.type_tag for m in result.moves]
        assert forward_simulate(first, result.moves, types)
        assert forward_simulate(mate, result.moves, types)
    elapsed = time.monotonic() - begin
    assert elapsed < 60.0, f"ambiguity constructions took {elapsed:.2f}s"


def test_criterion_6_uncertainty_halving():
    survey = _settling_survey()
    begin = time.monotonic()
    checked = 0
    for _, _, history, boundaries in survey["pairs"]:
        profile = uncertainty_profile(history, boundaries)
        for k in range(len(profile) - 1):
            for t in (0, 1):
                # one more complete stretch at least halves what remains
                assert 2 * profile[k][t] <= max(profile[k + 1][t] - 1, 0), (profile, k, t)
        checked += 1
    assert checked == 300
    elapsed = time.monotonic() - begin
    assert elapsed < 120.0, f"halving checks took {elapsed:.2f}s"


def test_criterion_7_inverse_realizers():
    survey = _brute_survey()
    begin = time.monotonic()
    for _, path, report in survey["runs"]:
        assert report.realizers
        for cand, types in report.realizers:
            flipped = [1 - t for t in types]
            assert forward_simulate(inverse(cand), path.moves, flipped)
    elapsed = time.monotonic() - begin
    assert elapsed < 300.0, f"inverse replays took {elapsed:.2f}s"
