"""Grouping runs of moves into product matrices and reading them back.

A same-winner run of pair moves multiplies out to identity plus a winner row
holding each loser's count; the counts take at most two values M-1 and M.
:func:`accelerate` builds a block's :class:`ZorichMove` straight from its moves
and renders it with :func:`~ietrewind.rauzy.record_matrix`, :func:`extract_move`
reads the row back as the same move, and :meth:`ZorichMove.units` lists the
unit moves it bundles (full loser set first, repeated M-1 times, then the
maximal losers once).  A permutation-flavor type-0 product is such a matrix
with winner n, and :func:`extract_move` reads it too; a type-1 run is a
closed-form power of the type-1 matrix.
"""
from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass

from .matrices import Matrix, identity
from .rauzy import (
    MalformedMatrix,
    RauzyPath,
    ZorichMove,
    _check_square,
    decode_A,
    record_matrix,
    type1_shift,
)


class MixedTypeBlock(Exception):
    """A grouping block mixes winners (pair flavor) or types (permutation)."""


@dataclass(frozen=True)
class ZorichPath:
    """An accelerated path: one product matrix per block.

    ``grouping`` stores the block lengths in single moves; ``moves`` and
    ``types``, when kept, hold each block's move and type.
    """

    flavor: str
    index: tuple
    matrices: tuple
    grouping: tuple | None = None
    moves: tuple | None = None
    types: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.index)


def accelerate(path: RauzyPath, grouping) -> ZorichPath:
    """The product of the path's matrices over each block, built from its moves.

    Pair-flavor blocks must share one winner; permutation-flavor blocks one
    type.  ``grouping`` lists the block lengths and must cover the path.  A
    winner never loses, so a block is one ZorichMove of its loser counts,
    which a same-winner run keeps within one of each other; a type-1 block
    at k is ``(k, length)``.
    """
    lengths = tuple(int(g) for g in grouping)
    if any(g <= 0 for g in lengths) or sum(lengths) != len(path.moves):
        raise ValueError("grouping must consist of positive lengths covering the path")
    moves, types = [], []
    pos = 0
    for length in lengths:
        block = path.moves[pos:pos + length]
        if path.flavor == "pair":
            if len({m.winner for m in block}) != 1:
                raise MixedTypeBlock(f"block at move {pos + 1} mixes winners")
        elif len(set(path.types[pos:pos + length])) != 1:
            raise MixedTypeBlock(f"block at move {pos + 1} mixes types")
        first = block[0]
        if type(first) is tuple:
            moves.append((first[0], length))
        else:
            counts = Counter(s for m in block for s in m.losers)
            top = max(counts.values())
            losers, losers_max = frozenset(counts), frozenset(s for s, c in counts.items() if c == top)
            moves.append(ZorichMove(first.winner, losers, top, losers_max, losers - losers_max))
        types.append(path.types[pos])
        pos += length
    mats = tuple(record_matrix(m, path.index) for m in moves)
    return ZorichPath(path.flavor, path.index, mats, lengths, tuple(moves), tuple(types))


def extract_move(matrix: Matrix, legend=None) -> ZorichMove:
    """Validate and decompose a winner-row matrix: a pair-flavor unit or
    block, or a permutation-flavor type-0 product."""
    mat = _check_square(matrix)
    n = len(mat)
    legend = tuple(legend) if legend is not None else tuple(range(1, n + 1))
    winner_row = None
    for i, (row, unit) in enumerate(zip(mat, identity(n))):
        if row == unit:  # one C-level comparison settles all but the winner row
            continue
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
    if top < 1 or any(v not in (top - 1, top) for _, v in off):
        raise MalformedMatrix("off-diagonal entries must be positive and take at most two adjacent values")
    if top > sys.maxsize:  # its unit moves could not even be counted in a list
        raise MalformedMatrix(f"off-diagonal entries must not pass {sys.maxsize}")
    losers = frozenset(legend[j] for j, _ in off)
    losers_max = frozenset(legend[j] for j, v in off if v == top)
    losers_min = frozenset() if top == 1 else losers - losers_max
    return ZorichMove(legend[i], losers, top, losers_max, losers_min)


def breakup(matrix: Matrix, legend=None) -> list:
    """Refactor a product matrix into unit-entry factors, oldest first.

    One factor per :meth:`ZorichMove.units` entry, rendered by
    :func:`record_matrix`; their ordered product returns the input exactly.
    """
    index = tuple(legend) if legend is not None else tuple(range(1, len(matrix) + 1))
    units = extract_move(matrix, index).units()
    return [record_matrix(ZorichMove(w, losers, 1, losers), index) for w, losers in units]


def winners_with_multiplicity(path: ZorichPath) -> list:
    """(winner, single-move count) per block, winners in start labels."""
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
            out.append((tau[n - 1], extract_move(mat).steps))
        else:
            out.append((tau[k - 1], p))
            tau = type1_shift(tau, k, p)
    return out
