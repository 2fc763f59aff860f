"""Translating permutation-flavor paths into labeled pair-flavor paths.

A labeling tau attaches symbols to positions.  Under induction the labeling
drifts: p type-1 moves at position k rotate slots k+1..n p places right
(tau composed with ``delta(k, n)`` p times), a type-0 move leaves it alone.
Relabelling a permutation-flavor move's winner by the labeling before the
move and its losers by the one after gives the block of the lifted pair
path, whose matrix is the conjugate Psi_tau . A . Psi*_tau'.
"""
from __future__ import annotations

from .core import Permutation, sorted_symbols
from .matrices import Matrix, matmul  # noqa: F401  (matmul kept importable: perfbench/trace_child.py wraps it)
from .rauzy import RauzyPath, block_move, type1_shift
from .rauzy import decode_A  # noqa: F401  (kept importable: perfbench/trace_child.py wraps lifting.decode_A)


class BadK(Exception):
    """A shift index outside 1..n-1."""


def delta(k: int, n: int) -> Permutation:
    """The relabeling shift: fixes 1..k, sends k+1 to n, shifts the rest down."""
    if not 1 <= k <= n - 1:
        raise BadK(f"shift index {k} outside 1..{n - 1}")
    return Permutation(
        tuple(j if j <= k else (n if j == k + 1 else j - 1) for j in range(1, n + 1))
    )


def sigma(t: int, k: int | None, n: int) -> Permutation:
    """Per-move relabeling: identity for type 0, ``delta(k, n)`` for type 1."""
    if t == 0:
        return Permutation(tuple(range(1, n + 1)))
    if k is None:
        raise BadK("type-1 relabeling needs k")
    return delta(k, n)


def relabel(tau, shift: Permutation) -> tuple:
    """The labeling tau composed with a position shift."""
    tau = tuple(tau)
    return tuple(tau[v - 1] for v in shift.image)


def psi_matrix(tau, legend) -> Matrix:
    """0/1 change-of-index matrix: rows follow ``legend``, columns positions."""
    tau = tuple(tau)
    legend = tuple(legend)
    n = len(tau)
    if len(legend) != n or set(legend) != set(tau):
        raise ValueError("legend must order exactly the labeling's symbols")
    return tuple(tuple(1 if tau[i] == a else 0 for i in range(n)) for a in legend)


def lift_step(move, tau):
    """Relabel one permutation-flavor move into the symbols of ``tau``.

    Returns (block, next_tau), next_tau the labeling after the move and
    block the pair ZorichMove whose matrix is Psi_tau . A . Psi*_next_tau:
    the winner row of A (row n, or row k of ``(k, p)``) with its rows read
    in tau and its columns in next_tau.
    """
    tau = tuple(tau)
    n = len(tau)
    if len(set(tau)) != n:
        raise ValueError("a labeling must not repeat a symbol")
    if type(move) is not tuple:
        if move.winner != n:
            raise ValueError("labeling size must match the move")
        return block_move(tau[-1], {tau[x - 1]: c for x, c in move.counts().items()}), tau
    k, p = move
    if not 1 <= k <= n - 1:
        raise BadK(f"shift index {k} outside 1..{n - 1}")
    nxt = type1_shift(tau, k, p)
    # row k of type1_matrix, whose counts are positive up to column k + p
    counts = {nxt[j - 1]: (p + n - j) // (n - k) for j in range(k + 1, min(n, k + p) + 1)}
    return block_move(tau[k - 1], counts), nxt


def lift_zorich_path(path: RauzyPath, tau=None):
    """Lift a permutation-flavor path movewise; returns (pair path, final tau)."""
    if path.flavor != "permutation":
        raise ValueError("only permutation-flavor paths can be lifted")
    current = tuple(tau) if tau is not None else path.index
    if len(current) != path.n:
        raise ValueError("labeling size must match the path")
    legend = sorted_symbols(current)
    lifted = []
    for move in path.moves:
        block, current = lift_step(move, current)
        lifted.append(block)
    return RauzyPath("pair", legend, None, tuple(lifted), path.types, grouping=path.grouping), current
