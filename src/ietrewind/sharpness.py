"""Counterexample paths showing the recovery bound cannot be improved.

``build_ambiguous_path`` produces, for any alphabet size n >= 8, a move
record whose winner sequence contains floor(log2 n) - 1 complete stretches
while recovery still cannot settle the rows: roughly n / 2^C letters stay
bunched in a single block.  The construction works backwards from the
ambiguous end state, so every intermediate state is checked by the same
rewind rules the recovery code uses.

The end states all share one shape, captured by :class:`PivotWitness`: each
row is a run of singletons, except possibly one unresolved block at the far
left, and each row's first singleton letter is the other row's last letter.
That shape is what lets a path cycle back to the very same knowledge
state (``refresh_cycle_path``) or halve the unresolved block at the cost
of one more complete stretch (``halving_path``).
"""
from __future__ import annotations

import sys

from .core import Frozen
from .rauzy import _unit, c_completeness
from .recovery import (
    OrderedPartition,
    PartiallyOrderedPair,
    _unit_run_rewind,
    _winner_row_rewind,
    enumerate_agreeing,
)
from .recovery import _loser_row_rewind  # noqa: F401  (kept importable: perfbench/trace_child.py wraps it)


class BadN(ValueError):
    """The requested size is outside what the construction supports."""


class PreconditionFailed(Exception):
    """The witness state lacks a property the requested path needs."""


def _only(block):
    return next(iter(block))


class PivotWitness(Frozen):
    """A knowledge state in pivot form, with its two hinge letters.

    ``pivots[t]`` is row t's leftmost singleton letter, which pivot form
    places at the right end of row 1-t.
    """

    __slots__ = ("pop", "pivots")

    def __init__(self, pop: PartiallyOrderedPair, pivots: tuple):
        object.__setattr__(self, "pop", pop)
        object.__setattr__(self, "pivots", pivots)

    @property
    def alphabet(self) -> tuple:
        return self.pop.alphabet


def pivot_form(pop: PartiallyOrderedPair):
    """The :class:`PivotWitness` for ``pop``, or None if it is not in form.

    Pivot form: any non-singleton block sits leftmost in its row, every row
    ends in a singleton, and the two hinge letters are distinct.
    """
    lead = []
    trail = []
    for t in (0, 1):
        row = pop.row(t)
        if any(len(b) > 1 for b in row[1:]):
            return None
        sing = [_only(b) for b in row if len(b) == 1]
        if not sing:
            return None
        lead.append(sing[0])
        trail.append(_only(row[-1]))
    if lead[0] != trail[1] or lead[1] != trail[0] or lead[0] == lead[1]:
        return None
    return PivotWitness(pop=pop, pivots=(lead[0], lead[1]))


class _Backward:
    """Builds a path last-move-first, checking each claim as it is made.

    ``push`` applies the recovery rewind to each single move of a run, so
    an impossible construction step raises instead of producing a bogus path.
    ``rows`` holds the two rows' :class:`OrderedPartition`, rewound in place
    from ``rows`` if given, else from one block each as recovery starts.
    ``runs`` holds one (winner, losers, type) per push, in backward order:
    entry 0 is the final push, whose last move recovery takes as type 0.
    Each run's losers are in forward order, and ``count`` is the number of
    single moves pushed.
    """

    def __init__(self, alphabet, rows=None):
        self.alphabet = tuple(alphabet)
        self.rows = [OrderedPartition(r) for r in rows or ((alphabet,), (alphabet,))]
        self.runs: list = []
        self.count = 0

    def push(self, winner, losers, t):
        """Push, in turn, the moves of type ``t`` in which ``winner`` beats each
        of ``losers``, as one run.  The winner row is rewound as recover_pair
        does it, once per same-winner run, and the loser row in one call."""
        losers = tuple(losers)
        if not losers:
            return
        runs, step = self.runs, self.count + 1
        if runs:
            assert (winner == runs[-1][0]) == (t == runs[-1][2]), "winner change must flip the type"
        if not runs or winner != runs[-1][0]:
            _winner_row_rewind(self.rows[t], winner, step)
        _unit_run_rewind(self.rows[1 - t], winner, losers, range(step, step + len(losers)))
        runs.append((winner, losers[::-1], t))
        self.count += len(losers)

    def forward_moves(self) -> list:
        """The single moves pushed, as (winner, loser) in forward order."""
        return [(w, x) for w, losers, _ in reversed(self.runs) for x in losers]

    def snapshot(self) -> tuple:
        return self.rows[0].snapshot(), self.rows[1].snapshot()

    def pop_state(self) -> PartiallyOrderedPair:
        return PartiallyOrderedPair(self.alphabet, *self.snapshot())

    def settled_row(self) -> int:
        for t in (0, 1):
            if len(self.rows[t]) == len(self.alphabet):  # all blocks singletons
                return t
        raise AssertionError("no fully settled row")

    def singleton_letters(self, t: int):
        return {x for b in self.rows[t] if len(b) == 1 for x in b}


def _push_first_segment(builder: _Backward, n: int):
    # A ladder 1 beats 2, 2 beats 3, ... settles one row completely once n
    # sweeps the survivors of the other row.
    for i in range(1, n):
        builder.push(i, (i + 1,), (i + 1) % 2)
    builder.push(n, range(n - 2, 0, -2), 1 if n % 2 == 0 else 0)


def _push_refresh(builder: _Backward, r: int):
    """A complete stretch that returns to the exact same knowledge state."""
    start = builder.snapshot()
    hinge, *tail = [x for b in start[r] if len(b) == 1 for x in b]
    both = builder.singleton_letters(r) & builder.singleton_letters(1 - r)
    other = builder.rows[1 - r]
    for letter in tail:
        builder.push(hinge, (letter,), 1 - r)
        if letter in both:
            assert other.block_of(letter) == {letter}
            blocks = list(other.blocks_after(letter))
            after = [x for b in blocks for x in b]
            assert len(after) == len(blocks)  # every block after the letter is a singleton
            builder.push(letter, after, r)
    assert builder.snapshot() == start


def _row_signature(builder: _Backward, r: int):
    """(singletons of row r in order, singletons of row 1-r after its block)."""
    s = [x for b in builder.rows[r] if len(b) == 1 for x in b]
    blocks = list(builder.rows[1 - r])
    if len(blocks[0]) > 1:
        del blocks[0]
    sig = [x for b in blocks for x in b]
    assert len(sig) == len(blocks)  # every block but a leading one is a singleton
    return s, sig


def _push_pair_path(builder: _Backward, r: int, b1, b2):
    """Extract ``b2`` from the unresolved block, pinning it against ``b1``.

    Costs one complete stretch; afterwards the surviving letters of the
    block hold the very same positions as before.
    """
    s, sig = _row_signature(builder, r)
    d0 = s.index(b1)
    e0 = s.index(b2)
    builder.push(s[0], s[1:d0 + 1], 1 - r)
    builder.push(b1, (b2,), r)
    builder.push(b2, s[e0 + 1:], 1 - r)
    builder.push(sig[0], sig[1:], r)


def _push_odd_path(builder: _Backward, r: int, b3):
    # When the unresolved block has odd size the leftover letter splits off
    # on its own, becoming the new hinge of its row.
    s, sig = _row_signature(builder, r)
    f0 = s.index(b3)
    builder.push(s[0], s[1:f0 + 1], 1 - r)
    builder.push(b3, sig, r)


class SharpnessResult(Frozen):
    """An ambiguous path: ``depth`` complete stretches, settled start not
    recoverable; ``unresolved`` letters stay bunched per row.  ``runs`` are
    the moves as the builder pushed them, in forward order: one (winner,
    losers, type) per push, its losers in the order they lose.  ``moves``
    and ``types`` expand them into unit ZorichMoves, one shared object per
    distinct (winner, loser), and each one's type.
    ``checkpoints`` pairs each stage's label with the two rows of the
    knowledge after it, as :meth:`_Backward.snapshot` gives them; only
    ``start`` is a :class:`PartiallyOrderedPair`."""

    __slots__ = ("n", "depth", "start", "checkpoints", "runs", "unresolved", "__weakref__")

    def __init__(self, n: int, depth: int, start: PartiallyOrderedPair, checkpoints: tuple, runs: tuple,
                 unresolved: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "checkpoints", checkpoints)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "unresolved", unresolved)

    @property
    def moves(self) -> tuple:
        units: dict = {}  # winner -> loser -> its one unit ZorichMove
        moves = []
        for w, losers, _ in self.runs:
            row = units.setdefault(w, {})
            for x in set(losers).difference(row):
                row[x] = _unit(w, x)
            moves += map(row.__getitem__, losers)
        return tuple(moves)

    @property
    def types(self) -> tuple:
        return tuple(t for _, losers, t in self.runs for _ in losers)


def build_ambiguous_path(n: int) -> SharpnessResult:
    if n < 8:
        raise BadN("the construction needs an alphabet of at least 8 letters")
    if n > sys.maxsize:
        raise BadN(f"the construction needs an alphabet of at most {sys.maxsize} letters")
    depth = n.bit_length() - 2
    alphabet = tuple(range(1, n + 1))
    builder = _Backward(alphabet)
    _push_first_segment(builder, n)
    checkpoints = [("segment", builder.snapshot())]
    for i in range(depth - 1):
        r = builder.settled_row()
        _push_refresh(builder, r)
        checkpoints.append((f"refresh{i}", builder.snapshot()))
        unresolved_block = next(iter(builder.rows[1 - r]))
        u = len(unresolved_block)
        assert u >= 4
        position = {_only(b): p for p, b in enumerate(builder.rows[r])}
        order = sorted(unresolved_block, key=position.__getitem__)
        for j in range(0, u - 1, 2):
            _push_pair_path(builder, r, order[j], order[j + 1])
            checkpoints.append((f"pair{i}.{j // 2}", builder.snapshot()))
        if u % 2:
            _push_odd_path(builder, r, order[-1])
            checkpoints.append((f"odd{i}", builder.snapshot()))
    start = builder.pop_state()
    runs = tuple(reversed(builder.runs))
    # counted over the runs' winners: the unit moves repeat each run's winner,
    # which can only add stretches, and tests/test_sharpness.py checks that
    # it adds none
    stretches, _ = c_completeness([w for w, _, _ in runs], alphabet)
    assert stretches == depth
    unresolved = n - min(len(start.singletons(0)), len(start.singletons(1)))
    assert unresolved == n >> depth
    return SharpnessResult(
        n=n,
        depth=depth,
        start=start,
        checkpoints=tuple(checkpoints),
        runs=runs,
        unresolved=unresolved,
    )


def refresh_cycle_path(witness: PivotWitness) -> list:
    """Forward (winner, loser) moves of a stretch leaving the knowledge
    state of ``witness`` unchanged.

    Every letter settled in both rows wins along the way, so on a fully
    settled witness the stretch is complete.
    """
    pop = witness.pop
    if pop.singletons(0) | pop.singletons(1) != set(pop.alphabet):
        raise PreconditionFailed("every letter must be settled in some row")
    builder = _Backward(pop.alphabet, rows=(pop.q0, pop.q1))
    _push_refresh(builder, 0)
    return builder.forward_moves()


def halving_path(witness: PivotWitness, r: int):
    """Forward moves cutting row 1-r's unresolved block to half its size.

    Returns (moves, start) where ``start`` is the pivot witness the longer
    path now begins from.
    """
    pop = witness.pop
    private = pop.singletons(r) - pop.singletons(1 - r)
    if len(private) < 4:
        raise PreconditionFailed("the unresolved block must hold at least 4 letters")
    builder = _Backward(pop.alphabet, rows=(pop.q0, pop.q1))
    position = {}
    for p, b in enumerate(builder.rows[r]):
        if len(b) == 1:
            position[_only(b)] = p
    order = sorted(private, key=position.__getitem__)
    u = len(order)
    for j in range(0, u - 1, 2):
        _push_pair_path(builder, r, order[j], order[j + 1])
    if u % 2:
        _push_odd_path(builder, r, order[-1])
    start = pivot_form(builder.pop_state())
    assert start is not None
    return builder.forward_moves(), start


def has_definitive_positions(pop: PartiallyOrderedPair) -> dict:
    """Letters inside unresolved blocks that every agreeing pair places at
    one same position anyway, by row."""
    candidates = enumerate_agreeing(pop)
    if not candidates:
        raise PreconditionFailed("no irreducible pair agrees with the knowledge")
    out = {}
    for t in (0, 1):
        hidden = {a for b in pop.row(t) if len(b) > 1 for a in b}
        pinned = set()
        for a in hidden:
            spots = {c.position(t, a) for c in candidates}
            if len(spots) == 1:
                pinned.add(a)
        out[t] = frozenset(pinned)
    return out
