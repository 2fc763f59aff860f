"""Grouping runs of moves into product matrices and reading them back.

A same-winner run of pair moves multiplies out to identity plus a winner row
holding each loser's count; the counts take at most two values M-1 and M.
:func:`accelerate` builds that row straight from the moves, :func:`extract_move`
reads it back as a :class:`ZorichMove`, and :meth:`ZorichMove.units` lists the
unit moves it bundles (full loser set first, repeated M-1 times, then the
maximal losers once).  A permutation-flavor type-1 run is a closed-form power
of the type-1 matrix.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .matrices import Matrix, mat_product, winner_row_matrix
from .rauzy import (
    MalformedMatrix,
    MoveRecord,
    RauzyPath,
    _check_square,
    decode_A,
    type0_loser_counts,
    type1_matrix,
    type1_shift,
)


class MixedTypeBlock(Exception):
    """A grouping block mixes winners (pair flavor) or types (permutation)."""


@dataclass(frozen=True)
class ZorichPath:
    """An accelerated path: one product matrix per block.

    ``grouping`` stores the block lengths in elementary moves; ``moves``
    optionally keeps one summary record per block.
    """

    flavor: str
    index: tuple
    matrices: tuple
    grouping: tuple | None = None
    moves: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class ZorichMove:
    """Decomposition of one pair-flavor product matrix."""

    winner: object
    losers: frozenset
    max_count: int
    losers_max: frozenset
    losers_min: frozenset

    @property
    def steps(self) -> int:
        """Number of elementary moves the matrix bundles."""
        return self.max_count * len(self.losers_max) + (self.max_count - 1) * len(self.losers_min)

    def units(self) -> list:
        """The bundled unit moves as (winner, losers), oldest first."""
        return [(self.winner, self.losers)] * (self.max_count - 1) + [(self.winner, self.losers_max)]


def accelerate(path: RauzyPath, grouping) -> ZorichPath:
    """The product of the path's matrices over each block, built from its moves.

    Pair-flavor blocks must share one winner; permutation-flavor blocks one
    type.  ``grouping`` lists the block lengths and must cover the path.  A
    winner never loses, so a block's product is the identity plus its loser
    counts on the winner row; a type-1 block keeps n at position k.
    """
    lengths = tuple(int(g) for g in grouping)
    if any(g <= 0 for g in lengths) or sum(lengths) != len(path.moves):
        raise ValueError("grouping must consist of positive lengths covering the path")
    mats, records = [], []
    position = {s: i for i, s in enumerate(path.index)}
    pos = 0
    for length in lengths:
        block = path.moves[pos:pos + length]
        if path.flavor == "pair":
            if len({m.winner for m in block}) != 1:
                raise MixedTypeBlock(f"block at move {pos + 1} mixes winners")
        else:
            if len({m.type_tag for m in block}) != 1:
                raise MixedTypeBlock(f"block at move {pos + 1} mixes types")
        first = block[0]
        if path.flavor == "permutation" and first.type_tag == 1:
            mats.append(type1_matrix(path.n, first.k, length))
        else:
            counts = Counter(position[s] for m in block for s in m.losers)
            mats.append(winner_row_matrix(path.n, position[first.winner], counts))
        losers = frozenset().union(*(m.losers for m in block))
        records.append(
            MoveRecord(first.winner, losers, type_tag=first.type_tag, k=first.k, power=length)
        )
        pos += length
    return ZorichPath(path.flavor, path.index, tuple(mats), lengths, tuple(records))


def extract_move(matrix: Matrix, legend=None) -> ZorichMove:
    """Validate and decompose a pair-flavor product matrix."""
    mat = _check_square(matrix)
    n = len(mat)
    legend = tuple(legend) if legend is not None else tuple(range(1, n + 1))
    winner_row = None
    for i, row in enumerate(mat):
        if row[i] != 1:
            raise MalformedMatrix("diagonal entries must all be 1")
        off = [(j, v) for j, v in enumerate(row) if j != i and v != 0]
        if off:
            if winner_row is not None:
                raise MalformedMatrix("off-diagonal support in more than one row")
            winner_row = (i, off)
    if winner_row is None:
        raise MalformedMatrix("the identity matrix encodes no move")
    i, off = winner_row
    top = max(v for _, v in off)
    if any(v not in (top - 1, top) for _, v in off):
        raise MalformedMatrix("off-diagonal entries must take at most two adjacent values")
    losers = frozenset(legend[j] for j, _ in off)
    losers_max = frozenset(legend[j] for j, v in off if v == top)
    losers_min = frozenset() if top == 1 else losers - losers_max
    return ZorichMove(legend[i], losers, top, losers_max, losers_min)


def breakup(matrix: Matrix, legend=None) -> list:
    """Refactor a product matrix into unit-entry factors, oldest first.

    One factor per :meth:`ZorichMove.units` entry; their ordered product
    returns the input exactly.
    """
    mat = _check_square(matrix)
    n = len(mat)
    legend = tuple(legend) if legend is not None else tuple(range(1, n + 1))
    pos = {s: j for j, s in enumerate(legend)}
    return [
        winner_row_matrix(n, pos[winner], {pos[s]: 1 for s in losers})
        for winner, losers in extract_move(mat, legend).units()
    ]


def winners_with_multiplicity(path: ZorichPath) -> list:
    """(winner, elementary-move count) per block, winners in start labels."""
    if path.flavor == "pair":
        return [(m.winner, m.steps) for m in (extract_move(mat, path.index) for mat in path.matrices)]
    # Permutation flavor: positions are relabeled by every type-1 move, so
    # track the labeling to report winners consistently.
    out = []
    n = path.n
    tau = list(path.index)
    for mat in path.matrices:
        t, k, p = decode_A(mat)
        if t == 0:
            out.append((tau[n - 1], sum(type0_loser_counts(mat).values())))
        else:
            out.append((tau[k - 1], p))
            tau = type1_shift(tau, k, p)
    return out


def expand_winners(path: ZorichPath) -> list:
    """The elementary-move winner sequence, block winners repeated."""
    return [winner for winner, count in winners_with_multiplicity(path) for _ in range(count)]


def verify_breakup(matrix: Matrix, legend=None) -> bool:
    mat = _check_square(matrix)
    return mat_product(breakup(mat, legend), len(mat)) == mat
