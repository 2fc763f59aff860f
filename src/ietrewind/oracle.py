"""Forward-replay ground truth.

Everything here replays candidates forward with its own minimal steppers,
deliberately sharing nothing with the reverse algorithms beyond the state
types, so the two sides can check each other.  The forward replays read a
record once over partially known rows (a permutation is a pair whose top row
is known); the brute forces try every arrangement and stay as their cross-check.
"""
from __future__ import annotations

from itertools import permutations
from math import factorial

from .core import BoundExceeded, Frozen, Pair, Permutation, is_irreducible_pair, is_irreducible_perm, project, sorted_symbols

PAIR_BRUTE_LIMIT = 6
PERM_BRUTE_LIMIT = 8
FORWARD_LIMIT = 10**5  # branches per row, and row pairs expanded, in forward_initial_pairs


class RealizabilityReport(Frozen):
    __slots__ = ("candidates_checked", "realizers")

    def __init__(self, candidates_checked: int, realizers: tuple):  # realizers: (Pair, types) entries
        object.__setattr__(self, "candidates_checked", candidates_checked)
        object.__setattr__(self, "realizers", realizers)


def _unit_losers(move):
    """The loser sets of the unit moves a :class:`ZorichMove` bundles."""
    return [move.losers] * (move.max_count - 1) + [move.losers_max]


def _clean_moves(moves, ordered: bool = False):
    # (winner, losers) per entry, a ZorichMove as one loser set per round of
    # its block; a raw move is a (winner, losers) tuple, anything else a
    # ZorichMove.  With ``ordered``, losers given as a tuple stay one: an
    # ordered run
    out = []
    for m in moves:
        if isinstance(m, tuple):
            w, losers = m
            out.append((w, losers if ordered and type(losers) is tuple else frozenset(losers)))
        elif m.max_count == 1:  # one unit move, as every simulated or sharpness pair move is
            out.append((m.winner, frozenset(m.losers_max)))
        else:
            out += [(m.winner, frozenset(losers)) for losers in _unit_losers(m)]
    return out


def forward_simulate(pair: Pair, moves, types) -> bool:
    """Replay the record from ``pair``; True iff every move plays out.

    A move whose losers are a tuple is an ordered run of unit moves, one per
    loser, each of which must lose in turn; a unit move is a run of one.
    Any other move is one same-winner cycle: its losers must come out
    exactly as the recorded set (order inside the cycle is the state's
    business).  Each move takes one type.
    """
    seq = _clean_moves(moves, ordered=True)
    types = list(types)
    if len(types) != len(seq):
        raise ValueError("one type per move required")
    return _replay(pair, seq, types)


def _replay(pair: Pair, seq, types) -> bool:
    # forward_simulate on a record already cleaned, with one type per move.
    # Each row is a linked list (symbol -> next, symbol -> previous, and its
    # end), so moving a loser from the end to right after the winner is O(1).
    rows = (pair.row0, pair.row1)
    after = [dict(zip(row, row[1:])) for row in rows]
    before = [dict(zip(row[1:], row)) for row in rows]
    end = [row[-1] for row in rows]
    for (winner, losers), t in zip(seq, types):
        if t not in (0, 1):
            raise ValueError("types must be 0 or 1")
        if end[t] != winner:
            return False
        r = 1 - t
        nxt, prv = after[r], before[r]
        if type(losers) is tuple or len(losers) == 1:  # an ordered run, a unit move being a run of one
            for x in losers:
                if end[0] == end[1]:
                    return False
                loser = end[r]
                if loser != x:
                    return False
                last = prv[loser]
                if last != winner:
                    end[r] = last
                    del nxt[last]
                    follow = nxt[winner]
                    nxt[winner], nxt[loser] = loser, follow
                    prv[follow], prv[loser] = loser, winner
            continue
        fallen = set()
        for _ in range(len(losers)):
            if end[0] == end[1]:
                return False
            loser = end[r]
            fallen.add(loser)
            last = prv[loser]
            if last != winner:  # else the loser is already right after the winner
                end[r] = last
                del nxt[last]
                follow = nxt[winner]
                nxt[winner], nxt[loser] = loser, follow
                prv[follow], prv[loser] = loser, winner
        if fallen != losers:
            return False
    return True


def _type_assignments(seq):
    # the winner sequence fixes all types once the last one is chosen
    out = []
    for final in (0, 1):
        ts = [final]
        for j in range(len(seq) - 2, -1, -1):
            ts.append(ts[-1] if seq[j][0] == seq[j + 1][0] else 1 - ts[-1])
        out.append(tuple(reversed(ts)))
    return out


def brute_force_initial_pairs(moves, alphabet) -> RealizabilityReport:
    """Try every irreducible pair (and both type seeds) against the record.

    Only candidates that pass the sound first-move filter are replayed: the
    first winner must sit rightmost in the row its type points at.
    """
    alphabet = tuple(alphabet)
    if len(alphabet) > PAIR_BRUTE_LIMIT:
        raise BoundExceeded(f"brute force capped at {PAIR_BRUTE_LIMIT} symbols")
    seq = _clean_moves(moves)
    if not seq:
        raise ValueError("empty move record")
    assignments = _type_assignments(seq)
    first = seq[0][0]
    symbols = sorted_symbols(alphabet)
    checked = 0
    found = []
    for r0 in permutations(symbols):
        for r1 in permutations(symbols):
            if first not in (r0[-1], r1[-1]):
                continue  # no type seed can open with this winner
            cand = Pair(alphabet, r0, r1)
            if not is_irreducible_pair(cand):
                continue
            for ts in assignments:
                if cand.row(ts[0])[-1] != first:
                    continue
                checked += 1
                if _replay(cand, seq, ts):
                    found.append((cand, ts))
    return RealizabilityReport(checked, tuple(found))


# --- pair flavor, forward over partial rows ----------------------------------
#
# Types fix which row each move reads: the winner row must end in the winner,
# and the loser row loses its last symbols one at a time, each reinserted
# right after the winner.  So the two rows replay independently.  A row is
# kept as a pool of tokens, in an order not yet known, followed by a known
# suffix.  A token is a known run: a symbol no move has taken, then the
# losers inserted after it.  Only a row's end is ever read, so a token
# leaves the pool exactly when the record names its last symbol as the end
# of the row; a move with several losers branches over which pool token
# ends the row when the suffix runs out.


class _PartialRow:
    __slots__ = ("pool", "suffix", "popped")

    def __init__(self, pool, suffix, popped):
        self.pool = pool  # list of token tuples
        self.suffix = suffix  # list
        self.popped = popped  # dict, the symbols moves took, in the order of their first move

    def copy(self):
        return _PartialRow(list(self.pool), list(self.suffix), dict(self.popped))

    def close(self, i):
        """Pool token ``i`` ends the row: it becomes the suffix, which was empty."""
        self.suffix = list(self.pool.pop(i))

    def end_with(self, symbol) -> bool:
        """Make the row end in ``symbol``; False if it cannot."""
        if self.suffix:
            return self.suffix[-1] == symbol
        for i, token in enumerate(self.pool):
            if token[-1] == symbol:
                self.close(i)
                return True
        return False

    def pull(self, winner, loser):
        """Move the row's last symbol, ``loser``, to right after ``winner``."""
        self.suffix.pop()
        self.popped[loser] = None  # setting a present key keeps its first place
        if winner in self.suffix:
            self.suffix.insert(self.suffix.index(winner) + 1, loser)
            return
        for i, token in enumerate(self.pool):
            if winner in token:
                cut = token.index(winner) + 1
                self.pool[i] = token[:cut] + (loser,) + token[cut:]
                return

    def starts(self):
        """Every start row that replays to this state: the pool heads in any
        order, the untaken suffix symbols, then the taken ones latest first."""
        tail = tuple(s for s in self.suffix if s not in self.popped) + tuple(reversed(self.popped))
        for heads in permutations(sorted_symbols(token[0] for token in self.pool)):
            yield heads + tail


def _lose(rows, winner, losers, spare):
    """The rows that can each lose ``losers`` to ``winner``, one symbol per
    move, and how many more branches may be opened."""
    out = []
    stack = [(row, losers) for row in rows]
    while stack:
        row, left = stack.pop()
        if not left:
            out.append(row)
            continue
        if not row.suffix:
            ends = [i for i, token in enumerate(row.pool) if token[-1] in left]
            if not ends:
                continue
            spare -= len(ends) - 1
            if spare < 0:
                raise BoundExceeded("the forward oracle's branches are over its bound")
            for i in ends[1:]:
                branch = row.copy()
                branch.close(i)
                stack.append((branch, left))
            row.close(ends[0])
        loser = row.suffix[-1]
        if loser in left:
            row.pull(winner, loser)
            stack.append((row, left - {loser}))
    return out, spare


def _row_states(seq, types, r, symbols, spare):
    """The partial states of row ``r`` that survive the whole record,
    opening at most ``spare`` branches."""
    rows = [_PartialRow([(s,) for s in symbols], [], {})]
    for (winner, losers), t in zip(seq, types):
        if t == r:
            rows = [row for row in rows if row.end_with(winner)]
        else:
            rows, spare = _lose(rows, winner, losers, spare)
        if not rows:
            break
    return rows


def forward_initial_pairs(moves, alphabet) -> RealizabilityReport:
    """Every irreducible pair, with its types, whose forward replay plays the record.

    The record is replayed once per row over partially known rows, so the
    work grows with the record and the branches it leaves open, not with
    n!^2.  Raises BoundExceeded once a row's replay opens more than
    ``FORWARD_LIMIT`` branches, or before expanding more than
    ``FORWARD_LIMIT`` row pairs.
    Finds what :func:`brute_force_initial_pairs` finds, in the same order;
    each row pair expanded counts as two candidates, one per type seed.
    """
    alphabet = tuple(alphabet)
    seq = _clean_moves(moves)
    if not seq:
        raise ValueError("empty move record")
    symbols = sorted_symbols(alphabet)
    universe = set(symbols)
    if any(w in losers or w not in universe or not losers <= universe for w, losers in seq):
        return RealizabilityReport(0, ())
    seed, flipped = _type_assignments(seq)
    # with every type flipped the rows swap roles, so one replay serves both seeds
    states = [_row_states(seq, seed, r, symbols, FORWARD_LIMIT) for r in (0, 1)]
    starts, pairs = _irreducible_starts(alphabet, states)
    found = [entry for cand in starts for entry in ((cand, seed), (cand.inverse(), flipped))]
    rank = {s: i for i, s in enumerate(symbols)}
    found.sort(key=lambda entry: ([rank[s] for s in entry[0].row0], [rank[s] for s in entry[0].row1]))
    return RealizabilityReport(2 * pairs, tuple(found))


def _irreducible_starts(alphabet, states):
    """The irreducible pairs that start a surviving state of each row, and the
    row pairs expanded, of which there may be at most ``FORWARD_LIMIT``."""
    orders = [sum(factorial(len(row.pool)) for row in rows) for rows in states]
    pairs = orders[0] * orders[1]
    if pairs > FORWARD_LIMIT:
        raise BoundExceeded(f"{pairs} row pairs over the forward oracle's bound of {FORWARD_LIMIT}")
    if not pairs:
        return [], 0
    rows0, rows1 = ([start for row in rows for start in row.starts()] for rows in states)
    cands = (Pair(alphabet, r0, r1) for r0 in rows0 for r1 in rows1)
    return [cand for cand in cands if is_irreducible_pair(cand)], pairs


# --- permutation flavor, forward over the bottom row -------------------------
# Labelled by its start positions, a permutation is a pair whose top row is
# known throughout (Veech's correspondence): type 0 leaves it, and p type-1
# moves at k rotate its slots k+1..n by p.  So only the bottom row replays.


def forward_initial_perms(entries, n: int) -> list:
    """Every irreducible permutation, by image, whose forward replay plays the
    entries of a permutation file as its reader gives them: type-0 units or
    blocks (winner n, losers by position), or type-1 powers ``(k, p)``.
    Finds what :func:`brute_force_initial_perms` finds from their matrices,
    at any n; raises BoundExceeded as :func:`forward_initial_pairs` does."""
    labels = tuple(range(1, n + 1))
    top, seq, types = labels, [], []
    for entry in entries:
        if isinstance(entry, tuple):
            k, p = entry
            seq.append((top[k - 1], frozenset((top[-1],))))
            types.append(1)
            cut = n - p % (n - k)
            top = top[:k] + top[cut:] + top[k:cut]
        else:
            seq += [(top[-1], frozenset(top[x - 1] for x in losers)) for losers in _unit_losers(entry)]
            types += [0] * (len(seq) - len(types))
    pinned = [_PartialRow([], list(labels), {})]
    starts, _ = _irreducible_starts(labels, [pinned, _row_states(seq, types, 1, labels, FORWARD_LIMIT)])
    return sorted(map(project, starts), key=lambda perm: perm.image)


# --- permutation flavor ----------------------------------------------------

def _unit_rows(mat, n):
    return all(
        mat[i][j] == (1 if i == j else 0) for i in range(n - 1) for j in range(n)
    )


def _step0(image):
    # type 0: values above the last one shift up, n drops next to it
    n = len(image)
    last = image[-1]
    new = tuple(v if v <= last else (last + 1 if v == n else v + 1) for v in image)
    return new, image.index(n) + 1


def _step1(image):
    # type 1: the tail value tucks in right after the slot holding n
    n = len(image)
    k = image.index(n) + 1
    return image[:k] + (image[-1],) + image[k:-1], k


def _perm_realizes(image, targets, unit):
    # targets: (matrix as row lists, entry sum, type-0 shape) per matrix, read
    # once per record; unit: the identity rows
    n = len(unit)
    for target, total, type0 in targets:
        prod = list(map(list, unit))
        while True:
            if type0:
                image, loser = _step0(image)
                # right-multiplying by identity + E(n, loser) adds column n
                # into column `loser`
                for row in prod:
                    row[loser - 1] += row[n - 1]
            else:
                image, k = _step1(image)
                # right-multiplying by the type-1 step matrix keeps columns
                # 1..k, writes column k plus column n into column k + 1 and
                # shifts columns k+1..n-1 one place right
                for row in prod:
                    row[k:] = [row[k - 1] + row[n - 1]] + row[k:n - 1]
            if prod == target:
                break
            if sum(map(sum, prod)) >= total:
                return False
    return True


def _first_slots(first, unit):
    """The 0-based slots n may hold in a start that opens with matrix ``first``.

    A type-0 run's first move adds column n into the column of n's slot, so
    that slot carries a last-row entry; a type-1 run keeps n at its k, the
    first row that is not an identity row.
    """
    n = len(unit)
    if _unit_rows(first, n):
        return {j for j in range(n - 1) if first[n - 1][j]}
    return {next(i for i, row in enumerate(first) if list(row) != unit[i])}


def brute_force_initial_perms(matrices, n: int) -> list:
    """Every irreducible permutation whose forward replay yields the matrices."""
    if n > PERM_BRUTE_LIMIT:
        raise BoundExceeded(f"brute force capped at size {PERM_BRUTE_LIMIT}")
    mats = [tuple(map(tuple, m)) for m in matrices]
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("matrix sizes must match n")
    targets = [(list(map(list, m)), sum(map(sum, m)), _unit_rows(m, n)) for m in mats]
    unit = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    slots = _first_slots(mats[0], unit) if mats else set(range(n))
    out = []
    for image in permutations(range(1, n + 1)):
        if image.index(n) not in slots:
            continue
        perm = Permutation(image)
        if not is_irreducible_perm(perm):
            continue
        if _perm_realizes(image, targets, unit):
            out.append(perm)
    return out
