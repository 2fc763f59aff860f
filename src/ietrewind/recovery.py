"""Reverse algorithms: reconstructing initial data from the move record.

Knowledge about a row is an ordered partition of the alphabet: the blocks
are known to occupy consecutive position runs in the given order, with the
order inside each block unknown.  Processing the record backwards refines
this knowledge one move at a time; the case split in
:func:`_loser_row_rewind` is the whole story, shared by the pair and
permutation flavors (the permutation flavor plays it with the fixed winner
``n`` and skips the winner-row bookkeeping, which relabeling makes moot).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, permutations, product

from .core import (
    Pair,
    Permutation,
    is_irreducible_pair,
    is_irreducible_perm,
    sorted_symbols,
)
from .rauzy import MoveRecord, decode_A, type1_shift
from .zorich import extract_move
from .zorich import breakup  # noqa: F401  (kept importable: perfbench/trace_child.py wraps recovery.breakup)


class AllEmpty(Exception):
    """A block list collapsed entirely; the record is inconsistent."""


class AlphabetMismatch(Exception):
    """Two objects built over different symbol sets were combined."""


class BoundExceeded(Exception):
    """An enumeration was requested beyond the configured size bound."""


class Unrealizable(Exception):
    """No induction path can produce the given record.

    ``step`` is the 1-based index, counted from the path start, of the move
    at which the contradiction surfaced.
    """

    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


DEFAULT_ENUM_BOUND = 9
_ENUM_ENV = "IET_REWIND_MAX_ENUM"


def enumeration_bound(bound=None) -> int:
    if bound is not None:
        return int(bound)
    return int(os.environ.get(_ENUM_ENV, DEFAULT_ENUM_BOUND))


def star(blocks) -> tuple:
    """Drop empty blocks, freeze the rest; refuse to return nothing."""
    out = tuple(frozenset(b) for b in blocks if b)
    if not out:
        raise AllEmpty("all blocks empty")
    return out


def _check_partition(blocks, universe: set):
    seen: set = set()
    for b in blocks:
        if not b:
            raise ValueError("blocks must be non-empty")
        if seen & b:
            raise ValueError("blocks must be disjoint")
        seen |= b
    if seen != universe:
        raise ValueError("blocks must cover exactly the alphabet")


@dataclass(frozen=True)
class PartiallyOrderedPair:
    """Ordered-partition knowledge about both rows of a pair."""

    alphabet: tuple
    q0: tuple
    q1: tuple

    def __post_init__(self):
        universe = set(self.alphabet)
        _check_partition(self.q0, universe)
        _check_partition(self.q1, universe)

    @property
    def n(self) -> int:
        return len(self.alphabet)

    def row(self, t: int) -> tuple:
        return self.q0 if t == 0 else self.q1

    def singletons(self, t: int) -> frozenset:
        return frozenset(next(iter(b)) for b in self.row(t) if len(b) == 1)

    def uncertainty(self, t: int) -> int:
        """n minus the number of blocks: zero once the row is pinned down."""
        return self.n - len(self.row(t))

    def is_settled(self) -> bool:
        return all(len(b) == 1 for b in chain(self.q0, self.q1))

    def settled_pair(self) -> Pair:
        if not self.is_settled():
            raise ValueError("the ordering is not settled yet")
        return Pair(
            self.alphabet,
            tuple(next(iter(b)) for b in self.q0),
            tuple(next(iter(b)) for b in self.q1),
        )


def agrees(pair: Pair, pop: PartiallyOrderedPair) -> bool:
    """Does the pair order each row block-by-block as the knowledge states?"""
    if set(pair.alphabet) != set(pop.alphabet):
        raise AlphabetMismatch("pair and partial order use different symbols")
    for t in (0, 1):
        row = pair.row(t)
        pos = 0
        for block in pop.row(t):
            if set(row[pos:pos + len(block)]) != set(block):
                return False
            pos += len(block)
    return True


def agrees_perm(perm: Permutation, blocks) -> bool:
    """Does the permutation send each block onto the next value run?"""
    low = 1
    for block in blocks:
        values = {perm.image[i - 1] for i in block}
        if values != set(range(low, low + len(block))):
            return False
        low += len(block)
    return True


# --- the backward move ----------------------------------------------------

def _winner_row_rewind(blocks, winner, step: int) -> tuple:
    """Before its move the winner sat at the far right of its own row."""
    last = blocks[-1]
    if winner not in last:
        raise Unrealizable(step, "winner not available at the right end of its row")
    return star(blocks[:-1] + (last - {winner}, frozenset((winner,))))


def _loser_row_rewind(blocks, winner, losers, step: int) -> tuple:
    """Rewind the loser row through one move.

    After the move the losers sit immediately to the right of the winner (in
    an order the move itself fixed); before it they formed the row's right
    end.  Undoing that pins the winner as a new singleton and sends the
    losers to the back, splitting whatever blocks they were drawn from.
    """
    hits = [i for i, b in enumerate(blocks) if b & losers]
    if not hits:
        raise Unrealizable(step, "losers outside the alphabet")
    lo, hi = hits[0], hits[-1]
    if hits != list(range(lo, hi + 1)):
        raise Unrealizable(step, "loser set scattered over non-adjacent blocks")
    if lo == hi:
        block = blocks[lo]
        if winner in block:
            return star(blocks[:lo] + (block - losers,) + blocks[lo + 1:] + (losers,))
        if lo == 0 or winner not in blocks[lo - 1]:
            raise Unrealizable(step, "winner not adjacent to the loser run")
        return star(
            blocks[:lo - 1]
            + (blocks[lo - 1] - {winner}, frozenset((winner,)), block - losers)
            + blocks[lo + 1:]
            + (losers,)
        )
    # The run spans several blocks: interior ones must be swallowed whole,
    # and the fragments keep their block order behind the full blocks.
    for i in range(lo + 1, hi):
        if not blocks[i] <= losers:
            raise Unrealizable(step, "block inside the loser run keeps a non-loser")
    head, tail = blocks[lo], blocks[hi]
    if winner in head:
        return star(
            blocks[:lo]
            + (head - losers - {winner}, frozenset((winner,)), tail - losers)
            + blocks[hi + 1:]
            + (head & losers,)
            + blocks[lo + 1:hi]
            + (tail & losers,)
        )
    if not head <= losers:
        raise Unrealizable(step, "leading block of the loser run keeps a non-loser")
    if lo == 0 or winner not in blocks[lo - 1]:
        raise Unrealizable(step, "winner not adjacent to the loser run")
    return star(
        blocks[:lo - 1]
        + (blocks[lo - 1] - {winner}, frozenset((winner,)), tail - losers)
        + blocks[hi + 1:]
        + (head,)
        + blocks[lo + 1:hi]
        + (tail & losers,)
    )


def _normalize_moves(moves) -> list:
    out = []
    for m in moves:
        if isinstance(m, MoveRecord):
            if m.power != len(m.losers):
                raise ValueError(
                    "move records must be unit-normalized first (power == loser count)"
                )
            out.append((m.winner, frozenset(m.losers)))
        else:
            winner, losers = m
            losers = frozenset(losers)
            if not losers:
                raise ValueError("losers must be non-empty")
            if winner in losers:
                raise ValueError("the winner cannot also lose")
            out.append((winner, losers))
    return out


def recover_pair(moves, alphabet=None, trace: bool = False):
    """Rebuild knowledge of the starting pair from (winner, loser set) moves.

    Moves are chronological and unit-normalized (each loser loses once).
    Returns (knowledge, types) where types fixes the last move's type to 0;
    the true start, or its inverse, agrees with the knowledge.  With
    ``trace`` a third element lists the knowledge states from the seed
    backwards to the start.
    """
    seq = _normalize_moves(moves)
    if not seq:
        raise ValueError("empty move record")
    if alphabet is None:
        alphabet = sorted_symbols(set().union(*(losers for _, losers in seq), {w for w, _ in seq}))
    alphabet = tuple(alphabet)
    universe = set(alphabet)
    if len(universe) < 3:
        raise ValueError("need at least three symbols")
    for j, (winner, losers) in enumerate(seq, 1):
        if winner not in universe or not losers <= universe:
            raise AlphabetMismatch(f"step {j}: symbols outside the alphabet")

    last_winner, last_losers = seq[-1]
    rows = [
        star((universe - {last_winner}, frozenset((last_winner,)))),
        star((universe - last_losers, last_losers)),
    ]
    t = 0
    types = [0]
    states = [(rows[0], rows[1])]
    for j in range(len(seq) - 2, -1, -1):
        winner, losers = seq[j]
        if winner != seq[j + 1][0]:
            t = 1 - t
        step = j + 1
        rows[t] = _winner_row_rewind(rows[t], winner, step)
        rows[1 - t] = _loser_row_rewind(rows[1 - t], winner, losers, step)
        types.append(t)
        states.append((rows[0], rows[1]))
    types.reverse()
    pop = PartiallyOrderedPair(alphabet, rows[0], rows[1])
    if trace:
        history = [PartiallyOrderedPair(alphabet, q0, q1) for q0, q1 in states]
        return pop, tuple(types), history
    return pop, tuple(types)


def decode_perm_matrices(matrices):
    """Decode each permutation-flavor product matrix once; returns (moves, n).

    A move is ``(1, (k, p))`` for the p-th power of the type-1 matrix at
    position k, or ``(0, move)`` with ``move`` the :class:`ZorichMove` of a
    type-0 product (winner n, losers by position).
    """
    moves, n = [], None
    for raw in matrices:
        mat = tuple(tuple(int(v) for v in row) for row in raw)
        if n is None:
            n = len(mat)
        elif len(mat) != n:
            raise ValueError("matrices must share one size")
        t, k, p = decode_A(mat)
        moves.append((1, (k, p)) if t == 1 else (0, extract_move(mat)))
    return moves, n


def recover_perm(matrices, trace: bool = False):
    """Rebuild knowledge of the starting permutation from product matrices.

    Returns the ordered partition of positions (blocks map to consecutive
    value runs), or with ``trace`` a pair (blocks, history) where history
    runs from the seed backwards to the start, one entry per recovery item
    (type-0 products contribute one item per unit move).
    """
    moves, n = decode_perm_matrices(matrices)
    return recover_perm_moves(moves, n, trace=trace)


def recover_perm_moves(moves, n: int, trace: bool = False):
    """:func:`recover_perm` on moves decoded by :func:`decode_perm_matrices`."""
    # one item per type-1 block, (k, p); one per unit move of a type-0 block, its losers
    items = [
        (src, t, item)
        for src, (t, payload) in enumerate(moves, 1)
        for item in ([payload] if t == 1 else [losers for _, losers in payload.units()])
    ]
    if not items:
        raise ValueError("empty matrix record")
    if n < 3:
        raise ValueError("need size at least three")
    _, t, item = items[-1]
    last = frozenset((item[0],)) if t == 1 else item
    blocks = star((frozenset(range(1, n + 1)) - last, last))
    history = [blocks]
    for src, t, item in reversed(items[:-1]):
        if t == 1:
            k, p = item
            shift = type1_shift(range(1, n + 1), k, p)
            blocks = tuple(frozenset(shift[v - 1] for v in b) for b in blocks)
            # n holds position k throughout a type-1 run
            blocks = _winner_row_rewind(blocks, k, src)
        else:
            blocks = _loser_row_rewind(blocks, n, item, src)
        history.append(blocks)
    if trace:
        return blocks, history
    return blocks


# --- enumeration over knowledge states ------------------------------------

def _row_orders(blocks):
    per_block = [list(permutations(sorted_symbols(b))) for b in blocks]
    for combo in product(*per_block):
        yield tuple(chain.from_iterable(combo))


def enumerate_agreeing(pop: PartiallyOrderedPair, irreducible_only: bool = True, bound=None) -> list:
    """All pairs agreeing with the knowledge, in a fixed deterministic order."""
    if pop.n > enumeration_bound(bound):
        raise BoundExceeded(f"alphabet size {pop.n} over the enumeration bound")
    out = []
    for r0 in _row_orders(pop.q0):
        for r1 in _row_orders(pop.q1):
            cand = Pair(pop.alphabet, r0, r1)
            if irreducible_only and not is_irreducible_pair(cand):
                continue
            out.append(cand)
    return out


def enumerate_starting(pop: PartiallyOrderedPair, bound=None) -> list:
    """Agreeing irreducible pairs together with their inverses, deduplicated.

    This is the full set of pairs that can start a path whose record rewinds
    to the given knowledge.
    """
    out = []
    seen = set()
    for cand in enumerate_agreeing(pop, irreducible_only=True, bound=bound):
        for p in (cand, cand.inverse()):
            key = (p.row0, p.row1)
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def enumerate_agreeing_perms(blocks, irreducible_only: bool = True, bound=None) -> list:
    """All permutations agreeing with an ordered partition of positions."""
    n = sum(len(b) for b in blocks)
    if n > enumeration_bound(bound):
        raise BoundExceeded(f"size {n} over the enumeration bound")
    per_block = []
    low = 1
    for block in blocks:
        positions = sorted(block)
        values = range(low, low + len(block))
        per_block.append([list(zip(positions, perm)) for perm in permutations(values)])
        low += len(block)
    out = []
    for combo in product(*per_block):
        image = [0] * n
        for pos, val in chain.from_iterable(combo):
            image[pos - 1] = val
        cand = Permutation(tuple(image))
        if irreducible_only and not is_irreducible_perm(cand):
            continue
        out.append(cand)
    out.sort(key=lambda p: p.image)
    return out


# --- uncertainty accounting -----------------------------------------------

def uniqueness_threshold(n: int) -> int:
    """Completeness degree beyond which recovery always settles fully."""
    c = 0
    while (1 << (c + 1)) < n + 1:
        c += 1
    return c


def uncertainty_profile(history, boundaries, steps_per_move=None):
    """(u0, u1) at the start of each complete stretch, most refined first.

    ``history`` is a recover_pair trace (seed first); ``boundaries`` the
    1-based elementary-move indices closing each complete stretch, as
    returned by c_completeness on the expanded winner sequence.  The final
    entry is the trivial initial uncertainty (n-1, n-1).
    """
    if not history:
        raise ValueError("empty trace")
    total_moves = len(history)
    n = history[0].n
    if steps_per_move is None:
        cumulative = list(range(total_moves + 1))
    else:
        cumulative = [0]
        for s in steps_per_move:
            cumulative.append(cumulative[-1] + s)
        if len(steps_per_move) != total_moves:
            raise ValueError("steps_per_move must align with the trace")

    def move_of_step(step):
        for m in range(1, total_moves + 1):
            if cumulative[m] >= step:
                return m
        raise ValueError("step beyond the path")

    profile = []
    previous_end = 0
    for b in boundaries:
        start_move = move_of_step(previous_end + 1)
        pop = history[total_moves - start_move]
        profile.append((pop.uncertainty(0), pop.uncertainty(1)))
        previous_end = b
    profile.append((n - 1, n - 1))
    return profile
