"""Forward induction moves, their visitation matrices, and matrix decoders.

A move of type t takes the last symbol of row t as winner and the last
symbol of the other row as loser; the loser is reinserted immediately after
the winner in its own row.  Each move is logged as a :class:`MoveRecord`;
:func:`record_matrix` renders a record as its unimodular visitation matrix,
``identity + E(winner, loser)`` (pair flavor) or the corresponding
position-indexed matrix (permutation flavor).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .core import (
    Pair,
    Permutation,
    is_irreducible_pair,
    is_irreducible_perm,
)
from .matrices import Matrix, entry_sum, identity, winner_row_matrix
from .matrices import matmul  # noqa: F401  (kept importable: perfbench/trace_child.py wraps rauzy.matmul)


class NonIrreducible(Exception):
    """Induction is undefined on reducible data."""


class MalformedMatrix(Exception):
    """A matrix does not have the shape its decoder requires."""


@dataclass(frozen=True)
class MoveRecord:
    """One induction event.

    ``losers`` is the set of symbols that lose during the event and ``power``
    the number of elementary moves it bundles (1 for a plain move).  ``k``
    accompanies permutation-flavor type-1 moves only.
    """

    winner: object
    losers: frozenset
    type_tag: int | None = None
    k: int | None = None
    power: int = 1

    def __post_init__(self):
        if not self.losers:
            raise ValueError("losers must be non-empty")
        if self.winner in self.losers:
            raise ValueError("the winner cannot also lose")
        if self.k is not None and self.type_tag != 1:
            raise ValueError("k only accompanies type-1 moves")


@dataclass(frozen=True)
class RauzyPath:
    """A simulated path: one record per elementary move.

    ``index`` is the matrix legend (alphabet symbols for pair flavor, the
    tuple 1..n otherwise); ``states`` holds the visited states including the
    start, hence one entry more than ``moves``.
    """

    flavor: str
    index: tuple
    start: object
    moves: tuple
    states: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def matrices(self) -> tuple:
        """One visitation matrix per move, rendered by :func:`record_matrix`."""
        return tuple(record_matrix(m, self.index) for m in self.moves)


def rauzy_step_pair(pair: Pair, t: int):
    """One move of type t on a pair; returns (new pair, record)."""
    if t not in (0, 1):
        raise ValueError("move type must be 0 or 1")
    if not is_irreducible_pair(pair):
        raise NonIrreducible("induction needs an irreducible pair")
    rows = [pair.row0, pair.row1]
    winner = rows[t][-1]
    loser = rows[1 - t][-1]
    other = rows[1 - t]
    cut = other.index(winner) + 1
    rows[1 - t] = other[:cut] + (loser,) + other[cut:-1]
    return Pair(pair.alphabet, rows[0], rows[1]), MoveRecord(winner, frozenset((loser,)), type_tag=t)


def type1_matrix(n: int, k: int, p: int = 1) -> Matrix:
    """The visitation matrix of p type-1 moves made at state position k.

    Each move keeps columns 1..k, rotates columns k+1..n one place right and
    adds column k into column k+1.  So row k counts, for each column j > k,
    the moves whose added unit has rotated on to j, and rows below k hold
    the rotation by p places.  ``p = 0`` gives the identity.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("k must lie in 1..n-1")
    p = operator.index(p)
    if p < 0:
        raise ValueError("the power must be non-negative")
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


def type1_shift(labels, k: int, p: int = 1) -> tuple:
    """Position labels after p type-1 moves at k: slots k+1..n rotate p places right."""
    labels = tuple(labels)
    cut = len(labels) - p % (len(labels) - k)
    return labels[:k] + labels[cut:] + labels[k:cut]


def rauzy_step_perm(perm: Permutation, t: int):
    """One move of type t on a permutation; returns (new perm, record)."""
    if t not in (0, 1):
        raise ValueError("move type must be 0 or 1")
    if not is_irreducible_perm(perm):
        raise NonIrreducible("induction needs an irreducible permutation")
    n = perm.n
    img = perm.image
    if t == 0:
        last = img[-1]
        new = tuple(v if v <= last else (last + 1 if v == n else v + 1) for v in img)
        return Permutation(new), MoveRecord(n, frozenset((img.index(n) + 1,)), type_tag=0)
    k = img.index(n) + 1
    return Permutation(type1_shift(img, k)), MoveRecord(k, frozenset((n,)), type_tag=1, k=k)


def record_matrix(record: MoveRecord, index) -> Matrix:
    """The visitation matrix of a unit record (each loser loses once) or of a
    type-1 power, legend ``index``; other grouped records fix no loser counts."""
    n = len(index)
    if record.k is not None:
        return type1_matrix(n, record.k, record.power)
    if record.power != len(record.losers):
        raise ValueError("a grouped record does not fix its loser counts")
    position = {s: i for i, s in enumerate(index)}
    return winner_row_matrix(n, position[record.winner], {position[s]: 1 for s in record.losers})


def _simulate(flavor, index, step, start, types) -> RauzyPath:
    state, moves, states = start, [], [start]
    for t in types:
        state, record = step(state, t)
        moves.append(record)
        states.append(state)
    return RauzyPath(flavor, index, start, tuple(moves), tuple(states))


def simulate_pair(start: Pair, types) -> RauzyPath:
    return _simulate("pair", start.alphabet, rauzy_step_pair, start, types)


def simulate_perm(start: Permutation, types) -> RauzyPath:
    return _simulate("permutation", tuple(range(1, start.n + 1)), rauzy_step_perm, start, types)


def _check_square(a) -> Matrix:
    """``a`` as square, non-empty row tuples; entries are left to the caller."""
    mat = tuple(map(tuple, a))
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise MalformedMatrix("matrix must be square and non-empty")
    return mat


def decode_theta(theta: Matrix, legend=None):
    """Read (winner, loser) off a single pair-flavor move matrix."""
    mat = _check_square(theta)
    n = len(mat)
    legend = tuple(legend) if legend is not None else tuple(range(1, n + 1))
    hit = None
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if i == j:
                if v != 1:
                    raise MalformedMatrix("diagonal entries must all be 1")
            elif v == 1:
                if hit is not None:
                    raise MalformedMatrix("more than one off-diagonal entry")
                hit = (i, j)
            elif v != 0:
                raise MalformedMatrix("entries must be 0 or 1")
    if hit is None:
        raise MalformedMatrix("the identity matrix encodes no move")
    return legend[hit[0]], legend[hit[1]]


def _is_type0_product(mat: Matrix) -> bool:
    n = len(mat)
    for i in range(n - 1):
        for j, v in enumerate(mat[i]):
            if v != (1 if i == j else 0):
                return False
    last = mat[n - 1]
    if last[n - 1] != 1 or any(v < 0 for v in last):
        return False
    return any(v > 0 for j, v in enumerate(last) if j != n - 1)


def decode_A(a: Matrix):
    """Classify a permutation-flavor product matrix.

    Returns (0, None, 1) for a type-0 product (reading the loser counts off
    the last row is the caller's business), or (1, k, p) when the matrix is
    the p-th power of the type-1 matrix at position k.  Rows above k never
    change, and each type-1 move adds one to the entry sum, so k and p are
    read off the matrix and checked against one closed-form power.
    """
    mat = _check_square(a)
    n = len(mat)
    if _is_type0_product(mat):
        return 0, None, 1
    k = next((i for i, (row, unit) in enumerate(zip(mat, identity(n)), 1) if row != unit), n)
    p = entry_sum(mat) - n
    if k < n and p > 0 and mat == type1_matrix(n, k, p):
        return 1, k, p
    raise MalformedMatrix("neither a type-0 product nor a type-1 power")


def type0_loser_counts(a: Matrix) -> dict:
    """Per-position visit counts read off the last row of a type-0 product."""
    mat = _check_square(a)
    n = len(mat)
    if not _is_type0_product(mat):
        raise MalformedMatrix("not a type-0 product matrix")
    return {j + 1: v for j, v in enumerate(mat[n - 1]) if j != n - 1 and v}


def is_complete(winners, alphabet) -> bool:
    """Does every symbol win at least once?"""
    return set(alphabet) <= set(winners)


def c_completeness(winners, alphabet):
    """Greedy count of disjoint complete prefixes.

    Returns (C, boundaries) where boundaries[i] is the 1-based index at
    which the (i+1)-th complete stretch closes.
    """
    target = set(alphabet)
    seen: set = set()
    boundaries = []
    for i, w in enumerate(winners, 1):
        seen.add(w)
        if target <= seen:
            boundaries.append(i)
            seen = set()
    return len(boundaries), tuple(boundaries)


MAX_WALK_MOVES = 100_000


def walk_until_complete(start, rng, target: int):
    """Random moves from a Pair or Permutation until ``target`` complete stretches.

    Each step draws its type with ``rng.randint(0, 1)``; at least one step is
    taken.  Returns (types, winners), the winners in the start's labels (for
    a permutation, the position labels that each type-1 move shifts).
    Stretches are counted as the walk goes, as :func:`c_completeness` counts
    them.  Raises ValueError once ``MAX_WALK_MOVES`` moves fall short.
    """
    is_pair = isinstance(start, Pair)
    labels = tuple(range(1, start.n + 1))
    state, types, winners, seen, stretches = start, [], [], set(), 0
    while len(types) < MAX_WALK_MOVES:
        t = rng.randint(0, 1)
        state, record = (rauzy_step_pair if is_pair else rauzy_step_perm)(state, t)
        winners.append(record.winner if is_pair else labels[record.winner - 1])
        if record.k is not None:
            labels = type1_shift(labels, record.k)
        types.append(t)
        seen.add(winners[-1])
        if len(seen) == start.n:
            stretches, seen = stretches + 1, set()
        if stretches >= target:
            return types, winners
    raise ValueError(f"no {target}-complete path within {MAX_WALK_MOVES} moves")
