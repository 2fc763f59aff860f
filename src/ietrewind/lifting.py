"""Translating permutation-flavor paths into labeled pair-flavor paths.

A labeling tau attaches symbols to positions.  Under induction the labeling
drifts: p type-1 moves at position k rotate slots k+1..n p places right
(tau composed with ``delta(k, n)`` p times), a type-0 move leaves it alone.
Relabelling a permutation-flavor matrix's rows by the labeling before the
move and its columns by the one after gives the symbol-indexed matrix of the
lifted pair path: the conjugate Psi_tau . A . Psi*_tau', without products.
"""
from __future__ import annotations

from .core import Permutation, sorted_symbols
from .matrices import Matrix, matmul  # noqa: F401  (matmul kept importable: perfbench/trace_child.py wraps it)
from .rauzy import decode_A, type1_shift
from .zorich import ZorichPath


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


def lift_step(matrix: Matrix, tau, legend, t: int, k: int | None = None, power: int = 1):
    """Relabel one permutation-flavor matrix into symbol indexing.

    Returns (theta, next_tau), next_tau the labeling after the move(s) and
    theta[a][b] the entry at a's tau-position and b's next_tau-position,
    which is Psi_tau . matrix . Psi*_next_tau.
    """
    tau, legend = tuple(tau), tuple(legend)
    n = len(tau)
    if len(legend) != n or set(legend) != set(tau):
        raise ValueError("legend must order exactly the labeling's symbols")
    if t == 0:
        nxt = tau
    elif not 1 <= k <= n - 1:
        raise BadK(f"shift index {k} outside 1..{n - 1}")
    else:
        nxt = type1_shift(tau, k, power)
    cols = [nxt.index(b) for b in legend]
    theta = tuple(tuple(matrix[tau.index(a)][j] for j in cols) for a in legend)
    return theta, nxt


def lift_zorich_path(path: ZorichPath, tau=None):
    """Lift a permutation-flavor path blockwise; returns (pair path, final tau)."""
    if path.flavor != "permutation":
        raise ValueError("only permutation-flavor paths can be lifted")
    n = path.n
    current = tuple(tau) if tau is not None else tuple(range(1, n + 1))
    if len(current) != n:
        raise ValueError("labeling size must match the path")
    legend = sorted_symbols(current)
    thetas = []
    for mat in path.matrices:
        t, k, p = decode_A(mat)
        theta, current = lift_step(mat, current, legend, t, k, p)
        thetas.append(theta)
    lifted = ZorichPath("pair", legend, tuple(thetas), path.grouping, None)
    return lifted, current
