from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ietrewind.core import (
    Pair,
    Permutation,
    compose,
    identity_perm,
    inverse,
    is_irreducible_pair,
    is_irreducible_perm,
    lift_perm,
    make_pair,
    pair_from_obj,
    pair_to_obj,
    perm_from_obj,
    perm_power,
    perm_to_obj,
    project,
    sorted_symbols,
)
from ietrewind.matrices import (
    determinant,
    entry_sum,
    identity,
    matmul,
    mat_product,
    transpose,
    winner_row_matrix,
)


def test_pair_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        Pair((1, 2, 3), (1, 2, 3), (3, 2, 2))
    with pytest.raises(ValueError):
        Pair((1, 2, 3), (1, 2), (3, 2, 1))


def test_pair_min_size_is_two():
    p = Pair((1, 2), (1, 2), (2, 1))
    assert p.n == 2
    with pytest.raises(ValueError):
        Pair((1,), (1,), (1,))


def test_make_pair_defaults_alphabet_to_sorted_symbols():
    p = make_pair((3, 1, 2), (2, 1, 3))
    assert p.alphabet == (1, 2, 3)
    q = make_pair(("b", "a"), ("a", "b"))
    assert q.alphabet == ("a", "b")


def test_sorted_symbols_mixed_types_fall_back_to_repr():
    assert sorted_symbols([2, 1, 3]) == (1, 2, 3)
    out = sorted_symbols(["b", 1])
    assert set(out) == {"b", 1}


def test_position_and_inverse():
    p = make_pair((1, 2, 3, 4), (4, 3, 2, 1))
    assert p.position(0, 3) == 3
    assert p.position(1, 3) == 2
    assert inverse(p).row0 == p.row1
    assert inverse(inverse(p)) == p


_REDUCIBLE = [
    ((1, 2, 3), (2, 1, 3)),  # prefix of size 2 closes up
    ((1, 2, 3), (1, 3, 2)),  # first letter fixed
    ((1, 2, 3, 4), (3, 2, 1, 4)),
]
_IRREDUCIBLE = [
    ((1, 2, 3), (3, 2, 1)),
    ((1, 2, 3, 4), (4, 3, 2, 1)),
    ((1, 2, 3, 4), (2, 4, 1, 3)),
]


def test_pair_irreducibility_cases():
    for rows in _REDUCIBLE:
        assert not is_irreducible_pair(make_pair(*rows))
    for rows in _IRREDUCIBLE:
        assert is_irreducible_pair(make_pair(*rows))


def test_perm_irreducibility_matches_pair_view():
    for image in permutations(range(1, 5)):
        perm = Permutation(image)
        pair = lift_perm(perm, tuple(range(1, 5)))
        assert is_irreducible_perm(perm) == is_irreducible_pair(pair)


def test_permutation_validation_and_calls():
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert p.inverse()(2) == 1
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_compose_and_power():
    f = Permutation((2, 3, 1))
    assert compose(f, f.inverse()).image == identity_perm(3).image
    assert perm_power(f, 3).image == (1, 2, 3)
    assert perm_power(f, 0).image == (1, 2, 3)
    assert compose(f, identity_perm(3)) == f


def test_project_then_lift_round_trip():
    pair = make_pair((3, 2, 1), (1, 2, 3))
    perm = project(pair)
    assert lift_perm(perm, pair.row0) == pair


@given(st.integers(3, 6), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=60)
def test_project_lift_commute_on_random_pairs(n, rng):
    symbols = list(range(1, n + 1))
    row0 = list(symbols)
    row1 = list(symbols)
    rng.shuffle(row0)
    rng.shuffle(row1)
    pair = Pair(tuple(symbols), tuple(row0), tuple(row1))
    perm = project(pair)
    for i in range(1, n + 1):
        # row1 position of the symbol at row0 position i
        assert pair.position(1, pair.row0[i - 1]) == perm(i)
    assert lift_perm(perm, pair.row0) == pair


def test_serialization_round_trips():
    pair = make_pair(("A", "C", "B"), ("B", "C", "A"), alphabet=("A", "B", "C"))
    assert pair_from_obj(pair_to_obj(pair)) == pair
    perm = Permutation((3, 1, 2))
    assert perm_from_obj(perm_to_obj(perm)) == perm
    with pytest.raises(ValueError):
        perm_from_obj({"n": 4, "image": [3, 1, 2]})


# --- integer matrices ------------------------------------------------------

def test_star_import_binds_every_public_name():
    import ietrewind

    namespace = {}
    exec("from ietrewind import *", namespace)  # a stale __all__ entry raises AttributeError
    assert set(ietrewind.__all__) <= namespace.keys()


def test_elementary_and_product_shapes():
    e = winner_row_matrix(3, 0, {2: 1})
    assert e == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert matmul(e, identity(3)) == e
    assert mat_product([], 3) == identity(3)
    assert mat_product([e, e], 3) == ((1, 0, 2), (0, 1, 0), (0, 0, 1))
    assert transpose(e)[2][0] == 1
    assert entry_sum(e) == 4


def _det_by_expansion(m):
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * _det_by_expansion(minor)
    return total


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(deadline=None, max_examples=120)
def test_determinant_matches_cofactor_expansion(rows):
    mat = tuple(tuple(r) for r in rows)
    assert determinant(mat) == _det_by_expansion(mat)


def _winner_row_matrix_per_entry(n, row, counts):
    # the definition winner_row_matrix had before it shared identity rows
    return tuple(
        tuple((1 if i == j else 0) + (counts.get(j, 0) if i == row else 0) for j in range(n))
        for i in range(n)
    )


def test_winner_row_matrix_matches_the_per_entry_definition():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(1, 40)
        row = rng.randrange(n)
        columns = rng.sample(range(n), rng.randint(0, n))  # may include the winner's own column
        counts = {j: rng.randint(0, 50) for j in columns}
        for mapping in (counts, Counter(counts)):
            got = winner_row_matrix(n, row, mapping)
            assert got == _winner_row_matrix_per_entry(n, row, mapping)
            assert all(got[i] is identity(n)[i] for i in range(n) if i != row)


def test_determinant_of_singular_and_permuted():
    assert determinant(((2, 4), (1, 2))) == 0
    assert determinant(((0, 1), (1, 0))) == -1
    assert determinant(identity(5)) == 1
