"""Brute-force ground truth.

Everything here replays candidates forward with its own minimal steppers,
deliberately sharing nothing with the reverse algorithms beyond the state
types, so the two sides can check each other.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import permutations

from .core import Pair, Permutation, is_irreducible_pair, is_irreducible_perm, sorted_symbols
from .recovery import BoundExceeded

PAIR_BRUTE_LIMIT = 6
PERM_BRUTE_LIMIT = 8


@dataclass(frozen=True)
class RealizabilityReport:
    candidates_checked: int
    realizers: tuple  # (Pair, types) entries
    elapsed: float


def _pull_loser(rows, t):
    # one elementary move, mutating the row lists in place
    winner = rows[t][-1]
    loser = rows[1 - t].pop()
    rows[1 - t].insert(rows[1 - t].index(winner) + 1, loser)
    return loser


def _clean_moves(moves):
    out = []
    for m in moves:
        winner = getattr(m, "winner", None)
        if winner is not None:
            out.append((winner, frozenset(m.losers)))
        else:
            w, losers = m
            out.append((w, frozenset(losers)))
    return out


def forward_simulate(pair: Pair, moves, types) -> bool:
    """Replay the record from ``pair``; True iff every move plays out.

    Each move is one same-winner cycle: its losers must come out exactly as
    the recorded set (order inside the cycle is the state's business).
    """
    seq = _clean_moves(moves)
    types = list(types)
    if len(types) != len(seq):
        raise ValueError("one type per move required")
    return _replay(pair, seq, types)


def _replay(pair: Pair, seq, types) -> bool:
    # forward_simulate on a record already cleaned, with one type per move
    rows = [list(pair.row0), list(pair.row1)]
    for (winner, losers), t in zip(seq, types):
        if t not in (0, 1):
            raise ValueError("types must be 0 or 1")
        if rows[t][-1] != winner:
            return False
        fallen = set()
        for _ in range(len(losers)):
            if rows[0][-1] == rows[1][-1]:
                return False
            fallen.add(_pull_loser(rows, t))
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


def _scan_pair_rows(args):
    alphabet, row0s, seq, assignments, prune = args
    checked = 0
    found = []
    symbols = sorted_symbols(alphabet)
    for r0 in row0s:
        for r1 in permutations(symbols):
            cand = Pair(alphabet, r0, r1)
            if not is_irreducible_pair(cand):
                continue
            for ts in assignments:
                if prune and cand.row(ts[0])[-1] != seq[0][0]:
                    continue
                checked += 1
                if _replay(cand, seq, ts):
                    found.append((cand, ts))
    return checked, found


def brute_force_initial_pairs(moves, alphabet, prune: bool = True, jobs: int = 1) -> RealizabilityReport:
    """Try every irreducible pair (and both type seeds) against the record.

    ``prune`` applies the sound first-move filter: the first winner must sit
    rightmost in the row its type points at.
    """
    begin = time.monotonic()
    alphabet = tuple(alphabet)
    if len(alphabet) > PAIR_BRUTE_LIMIT:
        raise BoundExceeded(f"brute force capped at {PAIR_BRUTE_LIMIT} symbols")
    seq = _clean_moves(moves)
    if not seq:
        raise ValueError("empty move record")
    assignments = _type_assignments(seq)
    row0s = list(permutations(sorted_symbols(alphabet)))
    jobs = min(jobs, os.cpu_count() or 1, len(row0s))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        work = [(alphabet, row0s[i::jobs], seq, assignments, prune) for i in range(jobs)]
        checked = 0
        found = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for c, f in pool.map(_scan_pair_rows, work):
                checked += c
                found.extend(f)
        found.sort(key=lambda entry: (entry[0].row0, entry[0].row1))
    else:
        checked, found = _scan_pair_rows((alphabet, row0s, seq, assignments, prune))
    return RealizabilityReport(checked, tuple(found), time.monotonic() - begin)


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


def _perm_realizes(image, mats, n):
    for target in mats:
        total = sum(sum(row) for row in target)
        type0 = _unit_rows(target, n)
        prod = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
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
            frozen = tuple(tuple(row) for row in prod)
            if frozen == target:
                break
            if sum(sum(row) for row in prod) >= total:
                return False
    return True


def brute_force_initial_perms(matrices, n: int) -> list:
    """Every irreducible permutation whose forward replay yields the matrices."""
    if n > PERM_BRUTE_LIMIT:
        raise BoundExceeded(f"brute force capped at size {PERM_BRUTE_LIMIT}")
    mats = [tuple(map(tuple, m)) for m in matrices]
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("matrix sizes must match n")
    out = []
    for image in permutations(range(1, n + 1)):
        perm = Permutation(image)
        if not is_irreducible_perm(perm):
            continue
        if _perm_realizes(image, mats, n):
            out.append(perm)
    return out
