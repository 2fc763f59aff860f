"""Labelings, change-of-index matrices, and lifting permutation paths."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ietrewind.core import Permutation, identity_perm, is_irreducible_perm, lift_perm, perm_power
from ietrewind.lifting import BadK, delta, lift_step, lift_zorich_path, psi_matrix, relabel, sigma
from ietrewind.matrices import identity, matmul, transpose, winner_row_matrix
from ietrewind.rauzy import MalformedMatrix, RauzyPath, block_move, record_matrix, simulate_pair, simulate_perm, type1_matrix
from ietrewind.recovery import decode_perm_matrices
from ietrewind.zorich import accelerate, extract_move

# Visitation matrices of a hand-checked five-symbol permutation path:
# two cycle moves interleaved with shift moves (the second a double step).
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


def _perm_path(matrices):
    """The permutation-flavor path of product matrices, one move per matrix."""
    moves, n = decode_perm_matrices(matrices)
    types = tuple(int(type(m) is tuple) for m in moves)
    return RauzyPath("permutation", tuple(range(1, n + 1)), None, tuple(moves), types)


def test_delta_golden_and_bounds():
    assert delta(1, 5).image == (1, 5, 2, 3, 4)
    assert delta(2, 5).image == (1, 2, 5, 3, 4)
    assert delta(4, 5).image == (1, 2, 3, 4, 5)
    with pytest.raises(BadK):
        delta(0, 5)
    with pytest.raises(BadK):
        delta(5, 5)


def test_sigma_dispatch():
    assert sigma(0, None, 4) == identity_perm(4)
    assert sigma(1, 2, 4) == delta(2, 4)
    with pytest.raises(BadK):
        sigma(1, None, 4)


def test_relabel_golden():
    assert relabel((1, 2, 3, 4, 5), delta(1, 5)) == (1, 5, 2, 3, 4)
    assert relabel(("a", "b", "c"), Permutation((2, 3, 1))) == ("b", "c", "a")


@given(st.permutations(list(range(1, 7))), st.integers(1, 5), st.integers(1, 4))
@settings(deadline=None, max_examples=60)
def test_relabel_powers_compose(tau, k, p):
    tau = tuple(tau)
    one = delta(k, 6)
    stepped = tau
    for _ in range(p):
        stepped = relabel(stepped, one)
    assert relabel(tau, perm_power(one, p)) == stepped


@given(st.permutations([3, 1, "x", 7]))
@settings(deadline=None)
def test_psi_is_orthogonal(tau):
    from ietrewind.core import sorted_symbols

    legend = sorted_symbols(tau)
    psi = psi_matrix(tau, legend)
    assert matmul(psi, transpose(psi)) == identity(4)
    # row `a` has its 1 at the position where tau shows symbol a
    for r, a in enumerate(legend):
        assert psi[r][tau.index(a)] == 1


def test_psi_rejects_bad_legend():
    with pytest.raises(ValueError):
        psi_matrix((1, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        psi_matrix((1, 2, 3), (1, 2, 4))


def test_lift_hand_checked_path():
    path = _perm_path((_A1, _A2, _A3, _A4))
    lifted, tau = lift_zorich_path(path)
    assert tau == (1, 3, 4, 5, 2)
    assert lifted.types == (1, 0, 1, 0)
    got = [extract_move(theta, lifted.index) for theta in lifted.matrices]
    assert got == list(lifted.moves)
    assert [(m.winner, set(m.losers)) for m in got] == [
        (1, {5}),
        (4, {1}),
        (1, {3, 4}),
        (2, {1, 4}),
    ]


def test_lift_step_identity_labeling_is_transparent():
    # with tau = id and a type-0 move the conjugation changes nothing
    block, nxt = lift_step(extract_move(_A2), (1, 2, 3, 4, 5))
    assert record_matrix(block, (1, 2, 3, 4, 5)) == _A2
    assert nxt == (1, 2, 3, 4, 5)


@st.composite
def _lift_cases(draw):
    n = draw(st.integers(3, 7))
    tau = tuple(draw(st.permutations(["a", "b", "c", 4, 5, 6, 7][:n])))
    legend = tuple(draw(st.permutations(tau)))
    if draw(st.booleans()):
        top = draw(st.integers(1, 3))
        drawn = draw(st.lists(st.sampled_from((top - 1, top)), min_size=n - 1, max_size=n - 1))
        counts = {x: c for x, c in enumerate(drawn, 1) if c}
        counts[draw(st.integers(1, n - 1))] = top  # a type-0 block has a loser
        matrix = winner_row_matrix(n, n - 1, {x - 1: c for x, c in counts.items()})
        return block_move(n, counts), matrix, tau, legend
    k = draw(st.integers(1, n - 1))
    p = draw(st.integers(1, 3 * (n - k) + 1))  # below n - k, some losers lose nothing
    return (k, p), type1_matrix(n, k, p), tau, legend


@given(_lift_cases())
@settings(deadline=None, max_examples=150)
def test_lift_step_equals_the_psi_conjugate(case):
    # reference: the dense conjugate Psi_tau . A . Psi*_tau', tau' stepped by delta powers
    move, matrix, tau, legend = case
    nxt = tau if type(move) is not tuple else relabel(tau, perm_power(delta(move[0], len(tau)), move[1]))
    want = matmul(matmul(psi_matrix(tau, legend), matrix), transpose(psi_matrix(nxt, legend)))
    block, got = lift_step(move, tau)
    assert got == nxt
    assert record_matrix(block, legend) == want


def test_lift_step_keeps_its_errors():
    with pytest.raises(BadK):
        lift_step((5, 1), (1, 2, 3, 4, 5))
    with pytest.raises(BadK):
        lift_step((0, 1), (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        lift_step(extract_move(_A2), (1, 2, 3, 4, 4))  # a label repeated
    with pytest.raises(ValueError):
        lift_step(extract_move(_A2), (1, 2, 3, 4))  # a label short


def test_lift_rejects_pair_flavor_and_bad_tau():
    perm_path = _perm_path((_A1,))
    with pytest.raises(ValueError):
        lift_zorich_path(RauzyPath("pair", (1, 2), None, (), ()), None)
    with pytest.raises(ValueError):
        lift_zorich_path(perm_path, (1, 2, 3))
    negative_type0 = identity(5)[:4] + ((1, -1, 0, 0, 1),)
    with pytest.raises(MalformedMatrix):
        lift_zorich_path(_perm_path((negative_type0,)))


@given(
    st.permutations(list(range(1, 6))),
    st.lists(st.integers(0, 1), min_size=1, max_size=10),
)
@settings(deadline=None, max_examples=80)
def test_lifted_path_matches_direct_pair_simulation(image, types):
    from hypothesis import assume

    start = Permutation(tuple(image))
    assume(is_irreducible_perm(start))
    perm_path = simulate_perm(start, types)
    z = accelerate(perm_path, [1] * len(types))
    lifted, tau = lift_zorich_path(z)

    pair_path = simulate_pair(lift_perm(start, tuple(range(1, start.n + 1))), types)
    assert tuple(lifted.matrices) == tuple(pair_path.matrices)
    final = pair_path.states[-1]
    assert final.row0 == tau
    assert final == lift_perm(perm_path.states[-1], tau)
