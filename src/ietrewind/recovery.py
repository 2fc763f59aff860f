"""Reverse algorithms: reconstructing initial data from the move record.

Knowledge about a row is an ordered partition of the alphabet: the blocks
are known to occupy consecutive position runs in the given order, with the
order inside each block unknown.  Knowledge starts as one block per row,
and processing the record backwards refines it one move at a time; the
case split in :func:`_loser_row_rewind` is the whole story.  Permutation
knowledge is pair knowledge with a known top row (Veech's correspondence),
so the permutation rewind plays the same rules on fixed labels, and its
enumeration and agreement check are the pair ones.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, permutations, product

from .core import BoundExceeded, Frozen, Pair, Permutation, Unrealizable  # the two errors re-exported
from .core import is_irreducible_pair, lift_perm, project, sorted_symbols
from .core import is_irreducible_perm  # noqa: F401  (kept importable: perfbench/trace_child.py wraps it)
from .rauzy import decode_A, type1_shift
from .zorich import ZorichMove, extract_move
from .zorich import breakup  # noqa: F401  (kept importable: perfbench/trace_child.py wraps recovery.breakup)


class AlphabetMismatch(Exception):
    """Two objects built over different symbol sets were combined."""


MAX_CANDIDATES = 10**5  # row orders an enumeration may try


def _check_bounds(*partitions):
    """Raise BoundExceeded before trying more than MAX_CANDIDATES row orders.

    The count is a running product that stops once past the bound, so a
    huge block costs no huge factorial.
    """
    count = 1
    for b in chain.from_iterable(partitions):
        for k in range(2, len(b) + 1):
            count *= k
            if count > MAX_CANDIDATES:
                raise BoundExceeded(f"more than {MAX_CANDIDATES} candidates, over the enumeration bound")


def _check_partition(blocks, universe: set):
    seen: set = set()
    for b in blocks:
        if not b:
            raise ValueError("blocks must be non-empty")
        if not seen.isdisjoint(b):
            raise ValueError("blocks must be disjoint")
        seen |= b
    if seen != universe:
        raise ValueError("blocks must cover exactly the alphabet")


class PartiallyOrderedPair(Frozen):
    """Ordered-partition knowledge about both rows of a pair."""

    __slots__ = ("alphabet", "q0", "q1")

    def __init__(self, alphabet: tuple, q0: tuple, q1: tuple):
        universe = set(alphabet)
        _check_partition(q0, universe)
        _check_partition(q1, universe)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)

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


def _perm_knowledge(blocks) -> PartiallyOrderedPair:
    """Position blocks as pair knowledge whose top row is the settled positions 1..n."""
    positions = range(1, sum(map(len, blocks)) + 1)
    return PartiallyOrderedPair(tuple(positions), tuple(frozenset((i,)) for i in positions), tuple(blocks))


def agrees_perm(perm: Permutation, blocks) -> bool:
    """Does the permutation send each block onto the next value run?"""
    return agrees(lift_perm(perm, range(1, perm.n + 1)), _perm_knowledge(blocks))


# --- the backward move ----------------------------------------------------

class _Block:
    """One block of an :class:`OrderedPartition`: its symbols and its neighbours."""

    __slots__ = ("items", "prev", "next")

    def __init__(self, items, prev=None, next=None):
        self.items, self.prev, self.next = items, prev, next


class OrderedPartition:
    """Ordered-partition knowledge of one row, kept as a linked list of blocks.

    A map from each symbol to its block lets a rewind step touch only the
    blocks holding its winner and losers, so the step costs
    O(|losers| + blocks touched) whatever the alphabet size.  The rewinds
    below mutate the partition in place; :meth:`snapshot` freezes it into
    the tuple-of-frozensets form the rest of the package reads.
    """

    __slots__ = ("_root", "_where", "_count")

    def __init__(self, blocks):
        self._root = root = _Block(None)
        root.prev = root.next = root
        self._where = {}
        self._count = 0
        for b in blocks:
            if b:
                self._append(self._adopt(set(b)))

    def __len__(self) -> int:
        """The number of blocks."""
        return self._count

    def __iter__(self):
        """The blocks in row order, live: read them, do not change them."""
        return self._blocks_from(self._root.next)

    def snapshot(self) -> tuple:
        return tuple(map(frozenset, self))

    def block_of(self, symbol):
        """The block holding ``symbol``, live."""
        return self._where[symbol].items

    def blocks_after(self, symbol):
        """The blocks to the right of ``symbol``'s block, in row order, live."""
        return self._blocks_from(self._where[symbol].next)

    def _blocks_from(self, node):
        while node is not self._root:
            yield node.items
            node = node.next

    def _adopt(self, items) -> _Block:
        node = _Block(items)
        for x in items:
            self._where[x] = node
        return node

    def _unlink(self, node):
        node.prev.next = node.next
        node.next.prev = node.prev
        self._count -= 1

    def _insert_after(self, ref, node):
        node.prev, node.next = ref, ref.next
        ref.next.prev = node
        ref.next = node
        self._count += 1

    def _append(self, node):
        self._insert_after(self._root.prev, node)

    def _take(self, node, part) -> _Block:
        """Detach ``part`` (a fresh set, kept) of the block as a block of its own,
        or the block itself when ``part`` is all of it."""
        if len(part) == len(node.items):
            self._unlink(node)
            return node
        node.items -= part
        return self._adopt(part)

    def _pin_after(self, node, symbol):
        """Split ``symbol`` out of its block into a singleton right after it."""
        if len(node.items) > 1:
            node.items.discard(symbol)
            self._insert_after(node, self._adopt({symbol}))


def _winner_row_rewind(part: OrderedPartition, winner, step: int):
    """Before its move the winner sat at the far right of its own row.  It runs
    once per unit move, so it does its list steps inline."""
    root = part._root
    last = root.prev
    if part._where.get(winner) is not last:
        raise Unrealizable(step, "winner not available at the right end of its row")
    if len(last.items) > 1:
        last.items.discard(winner)
        last.next = root.prev = part._where[winner] = _Block({winner}, last, root)
        part._count += 1


def _loser_row_rewind(part: OrderedPartition, winner, losers, step: int):
    """Rewind the loser row through one move.

    After the move the losers sit immediately to the right of the winner (in
    an order the move itself fixed); before it they formed the row's right
    end.  Undoing that pins the winner as a new singleton and sends the
    losers to the back, splitting whatever blocks they were drawn from.
    Every loser must be a symbol of the partition.  A single loser, as every
    unit pair move has, takes a short path through the same rules, with its
    list steps inline.
    """
    where = part._where
    if len(losers) == 1:
        (x,) = losers
        node = where.get(x)
        if node is None:
            raise Unrealizable(step, "losers outside the alphabet")
        winner_node = where.get(winner)
        if winner_node is not node:
            if winner_node is not node.prev:
                raise Unrealizable(step, "winner not adjacent to the loser run")
            if len(winner_node.items) > 1:  # pin the winner between its block and the loser's
                winner_node.items.discard(winner)
                winner_node.next = node.prev = where[winner] = _Block({winner}, winner_node, node)
                part._count += 1
        if len(node.items) == 1:  # the loser's block moves to the back whole
            node.prev.next, node.next.prev = node.next, node.prev
        else:
            node.items.discard(x)
            node = where[x] = _Block({x})
            part._count += 1
        root = part._root
        node.prev, node.next = root.prev, root
        root.prev.next = root.prev = node
        return
    hit: dict = {}  # block -> the losers it holds
    for x in losers:
        node = where.get(x)
        if node is None:
            raise Unrealizable(step, "losers outside the alphabet")
        if node in hit:
            hit[node].add(x)
        else:
            hit[node] = {x}
    if not hit:
        raise Unrealizable(step, "losers outside the alphabet")
    lo = hi = next(iter(hit))
    if len(hit) > 1:
        while lo.prev in hit:
            lo = lo.prev
        while hi.next in hit:
            hi = hi.next
        run = [lo]
        while run[-1] is not hi:
            run.append(run[-1].next)
        if len(run) != len(hit):
            raise Unrealizable(step, "loser set scattered over non-adjacent blocks")
    winner_node = where.get(winner)
    if lo is hi:
        if winner_node is lo:
            part._append(part._take(lo, hit[lo]))
            return
        if winner_node is not lo.prev:
            raise Unrealizable(step, "winner not adjacent to the loser run")
        part._pin_after(winner_node, winner)
        part._append(part._take(lo, hit[lo]))
        return
    # The run spans several blocks: interior ones must be swallowed whole,
    # and the fragments keep their block order behind the full blocks.
    interior = run[1:-1]
    for node in interior:
        if len(hit[node]) != len(node.items):
            raise Unrealizable(step, "block inside the loser run keeps a non-loser")
    if winner_node is lo:
        head = part._take(lo, hit[lo])
        part._pin_after(lo, winner)
    else:
        if len(hit[lo]) != len(lo.items):
            raise Unrealizable(step, "leading block of the loser run keeps a non-loser")
        if winner_node is not lo.prev:
            raise Unrealizable(step, "winner not adjacent to the loser run")
        part._pin_after(winner_node, winner)
        head = part._take(lo, hit[lo])
    for node in interior:
        part._unlink(node)
    tail = part._take(hi, hit[hi])
    for node in [head, *interior, tail]:
        part._append(node)


def _block_runs(move: ZorichMove) -> list:
    """A block's unit moves as (losers, repeat) runs, oldest first.

    Its max_count - 1 units that lose all of ``losers`` are one unit and then
    one run of the rest, and each run is rewound once.  That is enough: once
    a second rewind of the same unit succeeds, the winner is a singleton just
    before a run of losers at its row's end, so a third changes nothing.
    """
    repeat = move.max_count - 1
    runs = [(move.losers, repeat - 1)] if repeat > 1 else []
    if repeat:
        runs.append((move.losers, 1))
    runs.append((move.losers_max, 1))
    return runs


def _unit_moves(moves) -> list:
    """(entry, winner, losers, repeat) per run of equal unit moves, entries numbered from 1."""
    out = []
    for src, m in enumerate(moves, 1):
        if isinstance(m, ZorichMove):
            if m.max_count == 1:
                out.append((src, m.winner, m.losers_max, 1))
            else:
                out.extend((src, m.winner, losers, repeat) for losers, repeat in _block_runs(m))
            continue
        winner, losers = m
        losers = frozenset(losers)
        if not losers or winner in losers:
            raise ValueError("a move needs losers, and its winner cannot also lose")
        out.append((src, winner, losers, 1))
    return out


def recover_pair(moves, alphabet=None, trace: bool = False):
    """Rebuild knowledge of the starting pair from its chronological moves.

    Moves are unit moves as (winner, loser set), or :class:`ZorichMove`
    blocks, whose unit moves are rewound in turn; an :class:`Unrealizable`
    step is the 1-based index of the failing entry.  Knowledge starts as one
    block per row, and every move is rewound, the last taken as type 0.
    Returns (knowledge, types), one type per unit move; the true start, or
    its inverse, agrees with the knowledge.  With ``trace`` a third element
    lists the knowledge after each unit move, last move first.
    """
    seq = _unit_moves(moves)
    if not seq:
        raise ValueError("empty move record")
    if alphabet is None:
        alphabet = sorted_symbols(set().union(*(losers for _, _, losers, _ in seq), {w for _, w, _, _ in seq}))
    alphabet = tuple(alphabet)
    universe = set(alphabet)
    if len(universe) < 3:
        raise ValueError("need at least three symbols")
    for step, winner, losers, _ in seq:
        if winner not in universe or not losers <= universe:
            raise AlphabetMismatch(f"step {step}: symbols outside the alphabet")

    rows = [OrderedPartition((universe,)), OrderedPartition((universe,))]
    t, previous = 1, object()  # so that the last move, rewound first, is type 0
    types, history = [], []
    for step, winner, losers, repeat in reversed(seq):
        if winner != previous:
            # a run keeps its type and leaves its winner row alone, so past its
            # first move the winner sits alone at that row's end: no rewind left
            t, previous = 1 - t, winner
            _winner_row_rewind(rows[t], winner, step)
        _loser_row_rewind(rows[1 - t], winner, losers, step)
        if repeat == 1:
            types.append(t)
        else:
            types += [t] * repeat
        if trace:
            history += [PartiallyOrderedPair(alphabet, rows[0].snapshot(), rows[1].snapshot())] * repeat
    types.reverse()
    pop = PartiallyOrderedPair(alphabet, rows[0].snapshot(), rows[1].snapshot())
    if trace:
        return pop, tuple(types), history
    return pop, tuple(types)


def decode_perm_matrices(matrices):
    """Decode each permutation-flavor product matrix once; returns (moves, n).

    A move is ``(k, p)`` for the p-th power of the type-1 matrix at position
    k, or the :class:`ZorichMove` of a type-0 product (winner n, losers by
    position).
    """
    moves, n = [], None
    for mat in matrices:
        if n is None:
            n = len(mat)
        elif len(mat) != n:
            raise ValueError("matrices must share one size")
        t, k, p = decode_A(mat)
        moves.append((k, p) if t == 1 else extract_move(mat))
    return moves, n


def recover_perm(matrices, trace: bool = False):
    """Rebuild knowledge of the starting permutation from product matrices.

    Returns the ordered partition of positions (blocks map to consecutive
    value runs), or with ``trace`` a pair (blocks, history) where history
    runs from the last item's rewind backwards to the start, one entry per
    type-1 block and one per unit move of a type-0 block.
    """
    moves, n = decode_perm_matrices(matrices)
    return recover_perm_moves(moves, n, trace=trace)


def recover_perm_moves(moves, n: int, trace: bool = False):
    """:func:`recover_perm` on moves as :func:`decode_perm_matrices` gives them.

    The partition is over fixed labels, and ``labels`` maps positions to
    them: a type-1 block at k is one slice of ``labels`` and pins the label
    at k, which holds n throughout the run; a type-0 unit rewinds its
    losers' labels in O(|losers|).  Knowledge starts as one block and every
    item is rewound.  Positions return for the trace and result.
    """
    # one item per type-1 block, its (k, p); one per run of a type-0 block, its losers
    items = []
    for src, move in enumerate(moves, 1):
        if isinstance(move, ZorichMove):
            items.extend((src, losers, repeat) for losers, repeat in _block_runs(move))
        else:
            items.append((src, move, 1))
    if not items:
        raise ValueError("empty matrix record")
    if n < 3:
        raise ValueError("need size at least three")
    labels = tuple(range(1, n + 1))
    part = OrderedPartition((labels,))
    history = []
    for src, item, repeat in reversed(items):
        if isinstance(item, tuple):
            k, p = item
            labels = type1_shift(labels, k, -p)
            _winner_row_rewind(part, labels[k - 1], src)
        else:
            _loser_row_rewind(part, labels[-1], {labels[x - 1] for x in item}, src)
        if trace:
            history += [_at_positions(part, labels)] * repeat
    blocks = _at_positions(part, labels)
    if trace:
        return blocks, history
    return blocks


def _at_positions(part: OrderedPartition, labels) -> tuple:
    """The partition's blocks of labels as blocks of the positions ``labels`` gives them."""
    position = {label: i for i, label in enumerate(labels, 1)}
    return tuple(frozenset(map(position.__getitem__, b)) for b in part)


# --- enumeration over knowledge states ------------------------------------

def _row_orders(blocks):
    per_block = [list(permutations(sorted_symbols(b))) for b in blocks]
    for combo in product(*per_block):
        yield tuple(chain.from_iterable(combo))


def enumerate_agreeing(pop: PartiallyOrderedPair) -> list:
    """All irreducible pairs agreeing with the knowledge, in a fixed deterministic order."""
    _check_bounds(pop.q0, pop.q1)
    out = []
    for r0 in _row_orders(pop.q0):
        for r1 in _row_orders(pop.q1):
            cand = Pair(pop.alphabet, r0, r1)
            if is_irreducible_pair(cand):
                out.append(cand)
    return out


def enumerate_starting(pop: PartiallyOrderedPair) -> list:
    """Agreeing irreducible pairs together with their inverses, deduplicated.

    This is the full set of pairs that can start a path whose record rewinds
    to the given knowledge.
    """
    out = []
    seen = set()
    for cand in enumerate_agreeing(pop):
        for p in (cand, cand.inverse()):
            key = (p.row0, p.row1)
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def enumerate_agreeing_perms(blocks) -> list:
    """All irreducible permutations agreeing with an ordered partition of positions."""
    _check_bounds(blocks)
    return sorted(map(project, enumerate_agreeing(_perm_knowledge(blocks))), key=lambda p: p.image)


# --- uncertainty accounting -----------------------------------------------

def uniqueness_threshold(n: int) -> int:
    """Completeness degree beyond which recovery always settles fully."""
    c = 0
    while (1 << (c + 1)) < n + 1:
        c += 1
    return c


def uncertainty_profile(history, boundaries, steps_per_move=None):
    """(u0, u1) at the start of each complete stretch, most refined first.

    ``history`` is a recover_pair trace (last move first); ``boundaries`` the
    1-based single-move indices closing each complete stretch, as
    returned by c_completeness on the expanded winner sequence.  The final
    entry is the trivial initial uncertainty (n-1, n-1).
    """
    if not history:
        raise ValueError("empty trace")
    total_moves = len(history)
    n = history[0].n
    if steps_per_move is None:
        cumulative = range(total_moves + 1)
    elif len(steps_per_move) != total_moves:
        raise ValueError("steps_per_move must align with the trace")
    else:
        cumulative = list(accumulate(steps_per_move, initial=0))
    profile = []
    previous_end = 0
    for b in boundaries:
        # the first move whose steps reach past the previous stretch
        start_move = bisect_left(cumulative, previous_end + 1, 1)
        if start_move > total_moves:
            raise ValueError("step beyond the path")
        pop = history[total_moves - start_move]
        profile.append((pop.uncertainty(0), pop.uncertainty(1)))
        previous_end = b
    profile.append((n - 1, n - 1))
    return profile
