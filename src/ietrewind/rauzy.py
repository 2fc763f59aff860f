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
import sys

from .core import (
    Frozen,
    Pair,
    Permutation,
    Value,
    is_irreducible_pair,
    is_irreducible_perm,
)
from .matrices import Matrix, entry_sum, identity, winner_row_matrix
from .matrices import matmul  # noqa: F401  (kept importable: perfbench/trace_child.py wraps rauzy.matmul)


class NonIrreducible(Exception):
    """Induction is undefined on reducible data."""


class MalformedMatrix(Exception):
    """A matrix does not have the shape its decoder requires."""


class ZorichMove(Value):
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
    moves.
    """

    __slots__ = ("flavor", "index", "start", "moves", "types", "grouping")

    def __init__(self, flavor: str, index: tuple, start, moves: tuple, types: tuple, *,
                 grouping: tuple | None = None):
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "grouping", grouping)

    def __reduce__(self):  # copy and pickle rebuild through __init__, ``grouping`` by keyword
        from functools import partial
        return partial(RauzyPath, grouping=self.grouping), (self.flavor, self.index, self.start, self.moves, self.types)

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def matrices(self) -> tuple:
        """One visitation matrix per move, rendered by :func:`record_matrix`."""
        return tuple(record_matrix(m, self.index) for m in self.moves)

    @property
    def states(self) -> tuple | None:
        """The visited states from the start on, replayed through the single
        steps; None for a grouped path or one without a start."""
        if self.grouping is not None or self.start is None:
            return None
        step = rauzy_step_pair if self.flavor == "pair" else rauzy_step_perm
        state, states = self.start, [self.start]
        for t in self.types:
            state, _ = step(state, t)
            states.append(state)
        return tuple(states)


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


# --- stepping on labels ----------------------------------------------------
#
# Rauzy induction keeps a start irreducible, so ``simulate_pair``,
# ``simulate_perm`` and the walks check it once and then step on labels.
# Each row is a linked list (symbol -> next, symbol -> previous, and its
# end), so a pair move costs O(1): the loser leaves the end of its row for
# the place right after the winner.  A permutation steps as a pair whose
# bottom row is linked and whose top row lists the labels by position, 1..n
# at the start, which a type-1 move shifts as :func:`type1_shift` does.  Its
# records need the top position of the bottom row's end, which the top row
# gives by one search when it is a str of ``chr(label)``.  So a permutation
# move is still O(n), a copy or a search of the top row, but done in C.
# Each distinct move is handed out as one shared object.


def _linked(row) -> list:
    """``row`` as [symbol -> next, symbol -> previous, last symbol]."""
    return [dict(zip(row, row[1:])), dict(zip(row[1:], row)), row[-1]]


def _pair_steps(rows, types):
    """(move, winner) for each type, stepping the two linked ``rows`` in place."""
    units, single = {}, {s: frozenset((s,)) for s in (*rows[0][0], rows[0][2])}  # one loser set per symbol
    for t in types:
        if t not in (0, 1):
            raise ValueError("move type must be 0 or 1")
        lose = rows[1 - t]
        winner, loser = rows[t][2], lose[2]
        move = units.get((winner, loser))
        if move is None:
            losers = single[loser]
            move = units[winner, loser] = ZorichMove(winner, losers, 1, losers)
        after, before = lose[0], lose[1]
        last = before[loser]
        if last != winner:  # else the loser is already right after the winner
            lose[2] = last
            del after[last]
            follow = after[winner]
            after[winner], after[loser] = loser, follow
            before[follow], before[loser] = loser, winner
        yield move, winner


def _perm_steps(rows, types):
    """(move, winner label) for each type, stepping ``rows`` in place: the top
    row's labels by position (a str of ``chr(label)``, or a tuple of the
    labels themselves), then the linked bottom row."""
    top, bottom = rows
    n = len(top)
    code, label = (chr, ord) if type(top) is str else (int, int)  # a label's entry in ``top``, and back
    after, before = bottom[0], bottom[1]
    k = top.index(code(bottom[2])) + 1  # the top position of the bottom row's end
    units, powers = {}, {}
    for t in types:
        if t == 0:  # the label at n wins, the one at k loses
            winner, loser = label(top[-1]), bottom[2]
            move = units.get(k)
            if move is None:
                move = units[k] = _unit(n, k)
            last = before[loser]
            if last != winner:
                bottom[2] = last
                del after[last]
                follow = after[winner]
                after[winner], after[loser] = loser, follow
                before[follow], before[loser] = loser, winner
                k = top.index(code(last)) + 1
        elif t == 1:  # the bottom row's end wins and stays at k; the label at n moves to k + 1
            winner = bottom[2]
            move = powers.get(k)
            if move is None:
                move = powers[k] = (k, 1)
            top = rows[0] = top[:k] + top[-1:] + top[k:-1]
        else:
            raise ValueError("move type must be 0 or 1")
        yield move, winner


def _label_steps(start, types):
    """(move, winner) for each type from ``start``, a Pair or Permutation
    checked irreducible here once; a permutation's winners are labels."""
    if isinstance(start, Pair):
        if not is_irreducible_pair(start):
            raise NonIrreducible("induction needs an irreducible pair")
        return _pair_steps((_linked(start.row0), _linked(start.row1)), types)
    if not is_irreducible_perm(start):
        raise NonIrreducible("induction needs an irreducible permutation")
    labels = range(1, start.n + 1)
    top = "".join(map(chr, labels)) if start.n <= sys.maxunicode else tuple(labels)
    return _perm_steps([top, _linked(start.inverse().image)], types)  # the bottom row holds top positions


def _path(start, moves: tuple, types: tuple) -> RauzyPath:
    if isinstance(start, Pair):
        return RauzyPath("pair", start.alphabet, start, moves, types)
    return RauzyPath("permutation", tuple(range(1, start.n + 1)), start, moves, types)


def _simulate(start, types) -> RauzyPath:
    types = tuple(types)
    return _path(start, tuple(move for move, _ in _label_steps(start, types)), types)


def simulate_pair(start: Pair, types) -> RauzyPath:
    return _simulate(start, types)


def simulate_perm(start: Permutation, types) -> RauzyPath:
    return _simulate(start, types)


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


def _drawn(rng, types, limit):
    """Up to ``limit`` types drawn with ``rng.randint(0, 1)``, each noted in ``types``."""
    for _ in range(limit):
        t = rng.randint(0, 1)
        types.append(t)
        yield t


def walk_path(start, rng, target: int):
    """The path of random moves from a Pair or Permutation until ``target``
    complete stretches, and its winners: as :func:`walk_until_complete`."""
    types, moves, winners, seen, stretches = [], [], [], set(), 0
    for move, winner in _label_steps(start, _drawn(rng, types, MAX_WALK_MOVES)):
        moves.append(move)
        winners.append(winner)
        seen.add(winner)
        if len(seen) == start.n:
            stretches, seen = stretches + 1, set()
        if stretches >= target:
            return _path(start, tuple(moves), tuple(types)), winners
    raise ValueError(f"no {target}-complete path within {MAX_WALK_MOVES} moves")


def walk_until_complete(start, rng, target: int):
    """Random moves from a Pair or Permutation until ``target`` complete stretches.

    Each step draws its type with ``rng.randint(0, 1)``; at least one step is
    taken.  Returns (types, winners), the winners in the start's labels (for
    a permutation, the position labels that each type-1 move shifts).
    Stretches are counted as the walk goes, as :func:`c_completeness` counts
    them.  Raises ValueError once ``MAX_WALK_MOVES`` moves fall short.
    """
    path, winners = walk_path(start, rng, target)
    return list(path.types), winners
