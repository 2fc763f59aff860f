"""Grouping runs of moves into blocks and reading block matrices back.

A same-winner run of pair moves multiplies out to identity plus a winner row
holding each loser's count; the counts take at most two values M-1 and M.
:func:`accelerate` builds a block's :class:`ZorichMove` straight from its
moves' loser counts, :func:`extract_move` reads a rendered row back as the
same move, and :meth:`ZorichMove.units` lists the unit moves it bundles
(full loser set first, repeated M-1 times, then the maximal losers once).
A permutation-flavor type-0 product is such a matrix with winner n, and
:func:`extract_move` reads it too; a type-1 run is ``(k, p)``.
"""
from __future__ import annotations

import sys
from collections import Counter

from .matrices import Matrix, identity
from .rauzy import (
    MalformedMatrix,
    RauzyPath,
    ZorichMove,
    _check_square,
    block_move,
    record_matrix,
    type1_shift,
)
from .rauzy import decode_A  # noqa: F401  (kept importable: perfbench/trace_child.py wraps zorich.decode_A)


class MixedTypeBlock(Exception):
    """A grouping block mixes winners (pair flavor) or types (permutation)."""


def accelerate(path: RauzyPath, grouping) -> RauzyPath:
    """The path with each block of ``grouping`` made one move, states dropped.

    Pair-flavor blocks must share one winner; permutation-flavor blocks one
    type.  ``grouping`` lists int block lengths covering an ungrouped path.
    A winner never loses, so a block is one ZorichMove of its loser counts,
    which a same-winner run keeps within one of each other; a type-1 block
    at k is ``(k, length)``.
    """
    if path.grouping is not None:
        raise ValueError("the path is grouped already: its moves would be miscounted")
    lengths = tuple(grouping)
    if any(type(g) is not int or g <= 0 for g in lengths) or sum(lengths) != len(path.moves):
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
            moves.append(block_move(first.winner, Counter(s for m in block for s in m.losers)))
        types.append(path.types[pos])
        pos += length
    return RauzyPath(path.flavor, path.index, path.start, tuple(moves), tuple(types), grouping=lengths)


def extract_move(matrix: Matrix, legend=None) -> ZorichMove:
    """Validate and decompose a winner-row matrix: a pair-flavor unit or
    block, or a permutation-flavor type-0 product."""
    mat = _check_square(matrix)
    n = len(mat)
    legend = tuple(legend) if legend is not None else tuple(range(1, n + 1))
    winner_row = None
    for i, (row, unit) in enumerate(zip(mat, identity(n))):
        if row is unit or row == unit:  # the shared identity row, or one C-level comparison: all but the winner row
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
    move = block_move(legend[i], {legend[j]: v for j, v in off})
    if move.max_count > sys.maxsize:  # its unit moves could not even be counted in a list
        raise MalformedMatrix(f"off-diagonal entries must not pass {sys.maxsize}")
    return move


def breakup(matrix: Matrix, legend=None) -> list:
    """Refactor a product matrix into unit-entry factors, oldest first.

    One factor per :meth:`ZorichMove.units` entry, rendered by
    :func:`record_matrix`; their ordered product returns the input exactly.
    """
    index = tuple(legend) if legend is not None else tuple(range(1, len(matrix) + 1))
    units = extract_move(matrix, index).units()
    return [record_matrix(ZorichMove(w, losers, 1, losers), index) for w, losers in units]


def winners_with_multiplicity(path: RauzyPath) -> list:
    """(winner, single-move count) per block, winners in start labels."""
    out, tau = [], path.index
    for m in path.moves:
        if type(m) is tuple:  # p type-1 moves at k win with the label at k, then relabel
            k, p = m
            out.append((tau[k - 1], p))
            tau = type1_shift(tau, k, p)
        else:
            out.append((m.winner if path.flavor == "pair" else tau[-1], m.steps))
    return out
