"""Forward induction moves, their visitation matrices, and their classifier.

A move of type t takes the last symbol of row t as winner and the last
symbol of the other row as loser; the loser is reinserted immediately after
the winner in its own row.  A move has the form the path-file reader gives
it: a :class:`ZorichMove` (a pair move, or a permutation type-0 move), or
``(k, p)`` for p permutation type-1 moves at position k.
:func:`record_matrix` renders either form as its unimodular visitation
matrix, ``identity + E(winner, loser)`` for a unit pair move.
"""
from __future__ import annotations

import operator

from .core import (
    Frozen,
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


class ZorichMove:
    """One same-winner run of moves: each symbol of ``losers_max`` loses
    ``max_count`` times, each of ``losers_min`` once less.

    A value: two moves with equal fields are equal and hash alike.  Its
    fields are not to be changed once built; it is not frozen, since paths
    and path files hold one per move and a frozen class builds slowly.
    """

    __slots__ = ("winner", "losers", "max_count", "losers_max", "losers_min")

    def __init__(self, winner, losers: frozenset, max_count: int, losers_max: frozenset,
                 losers_min: frozenset = frozenset()):
        self.winner = winner
        self.losers = losers
        self.max_count = max_count
        self.losers_max = losers_max
        self.losers_min = losers_min

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.winner, self.losers, self.max_count, self.losers_max, self.losers_min) == (
            other.winner, other.losers, other.max_count, other.losers_max, other.losers_min)

    def __hash__(self):
        return hash((self.winner, self.losers, self.max_count, self.losers_max, self.losers_min))

    def __repr__(self):
        return (f"ZorichMove(winner={self.winner!r}, losers={self.losers!r}, max_count={self.max_count!r}, "
                f"losers_max={self.losers_max!r}, losers_min={self.losers_min!r})")

    @property
    def steps(self) -> int:
        """Number of single moves the run bundles."""
        return self.max_count * len(self.losers_max) + (self.max_count - 1) * len(self.losers_min)

    def units(self) -> list:
        """The bundled unit moves as (winner, losers), oldest first."""
        return [(self.winner, self.losers)] * (self.max_count - 1) + [(self.winner, self.losers_max)]

    def counts(self) -> dict:
        """Each loser's number of losses."""
        counts = dict.fromkeys(self.losers_min, self.max_count - 1)
        counts.update(dict.fromkeys(self.losers_max, self.max_count))
        return counts


def _unit(winner, loser) -> ZorichMove:
    losers = frozenset((loser,))
    return ZorichMove(winner, losers, 1, losers)


def block_move(winner, counts) -> ZorichMove:
    """The ZorichMove of a run won by ``winner`` in which each loser s loses
    ``counts[s]`` times: the Zorich block whose winner row holds the counts.
    The counts must be positive and take at most two adjacent values."""
    low, top = min(counts.values()), max(counts.values())
    if low < 1 or top - low > 1:
        raise MalformedMatrix("off-diagonal entries must be positive and take at most two adjacent values")
    losers = frozenset(counts)
    losers_max = frozenset(s for s, c in counts.items() if c == top)
    return ZorichMove(winner, losers, top, losers_max, losers - losers_max)


class RauzyPath(Frozen):
    """A path: one move per block, and its type.

    ``index`` is the matrix legend (alphabet symbols for pair flavor, the
    tuple 1..n otherwise); ``grouping`` the block lengths, None for single
    moves; ``states``, when kept, the visited states from the start on.
    """

    __slots__ = ("flavor", "index", "start", "moves", "types", "states", "grouping")

    def __init__(self, flavor: str, index: tuple, start, moves: tuple, types: tuple,
                 states: tuple | None = None, grouping: tuple | None = None):
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "grouping", grouping)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.flavor, self.index, self.start, self.moves, self.types, self.states, self.grouping) == (
            other.flavor, other.index, other.start, other.moves, other.types, other.states, other.grouping)

    def __hash__(self):
        return hash((self.flavor, self.index, self.start, self.moves, self.types, self.states, self.grouping))

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def matrices(self) -> tuple:
        """One visitation matrix per move, rendered by :func:`record_matrix`."""
        return tuple(record_matrix(m, self.index) for m in self.moves)


def rauzy_step_pair(pair: Pair, t: int):
    """One move of type t on a pair; returns (new pair, its unit ZorichMove)."""
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
    return Pair(pair.alphabet, rows[0], rows[1]), _unit(winner, loser)


def type1_matrix(n: int, k: int, p: int = 1) -> Matrix:
    """The visitation matrix of p type-1 moves made at state position k.

    Each move keeps columns 1..k, rotates columns k+1..n one place right and
    adds column k into column k+1.  So row k counts, for each column j > k,
    the moves whose added unit has rotated on to j, and rows below k hold
    the rotation by p places: row i has its one at column j > k with
    j - i = p modulo n - k.  ``p = 0`` gives the identity.  Every row but
    row k is a shared row of ``identity(n)``.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("k must lie in 1..n-1")
    p = operator.index(p)
    if p < 0:
        raise ValueError("the power must be non-negative")
    m = n - k
    unit = identity(n)
    row_k = (0,) * (k - 1) + (1,) + tuple((p + n - j) // m for j in range(k + 1, n + 1))
    return unit[:k - 1] + (row_k,) + tuple(unit[k + (q + p) % m] for q in range(m))


def type1_shift(labels, k: int, p: int = 1) -> tuple:
    """Position labels after p type-1 moves at k: slots k+1..n rotate p places right."""
    labels = tuple(labels)
    cut = len(labels) - p % (len(labels) - k)
    return labels[:k] + labels[cut:] + labels[k:cut]


def rauzy_step_perm(perm: Permutation, t: int):
    """One move of type t on a permutation; returns (new perm, move): the unit
    ZorichMove of type 0 (winner n, loser by position), or ``(k, 1)`` of type 1."""
    if t not in (0, 1):
        raise ValueError("move type must be 0 or 1")
    if not is_irreducible_perm(perm):
        raise NonIrreducible("induction needs an irreducible permutation")
    n = perm.n
    img = perm.image
    if t == 0:
        last = img[-1]
        new = tuple(v if v <= last else (last + 1 if v == n else v + 1) for v in img)
        return Permutation(new), _unit(n, img.index(n) + 1)
    k = img.index(n) + 1
    return Permutation(type1_shift(img, k)), (k, 1)


def record_matrix(move, index) -> Matrix:
    """The visitation matrix of a move, legend ``index``: a type-1 power
    ``(k, p)``, or a ZorichMove's winner row of loser counts."""
    n = len(index)
    if type(move) is tuple:
        return type1_matrix(n, *move)
    position = {s: i for i, s in enumerate(index)}
    counts = {position[s]: c for s, c in move.counts().items()}
    return winner_row_matrix(n, position[move.winner], counts)


def _simulate(flavor, index, step, start, types) -> RauzyPath:
    state, moves, states = start, [], [start]
    types = tuple(types)
    for t in types:
        state, move = step(state, t)
        moves.append(move)
        states.append(state)
    return RauzyPath(flavor, index, start, tuple(moves), types, tuple(states))


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


def decode_A(a: Matrix):
    """Classify a permutation-flavor product matrix.

    Returns (0, None, 1) when only the last row differs from the identity,
    the shape of a type-0 product (:func:`ietrewind.zorich.extract_move`
    reads and checks that row), or (1, k, p) when the matrix is the p-th
    power of the type-1 matrix at position k.  Rows above k never change,
    and each type-1 move adds one to the entry sum, so k and p are read off
    the matrix and checked against one closed-form power.
    """
    mat = _check_square(a)
    n = len(mat)
    k = next((i for i, (row, unit) in enumerate(zip(mat, identity(n)), 1) if row != unit), None)
    if k is None:
        raise MalformedMatrix("the identity matrix encodes no move")
    if k == n:
        return 0, None, 1
    p = entry_sum(mat) - n
    if p > 0 and mat == type1_matrix(n, k, p):
        return 1, k, p
    raise MalformedMatrix("neither a type-0 product nor a type-1 power")


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
    raise ValueError(f"no {target}-complete path within {MAX_WALK_MOVES} moves")
