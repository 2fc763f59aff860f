"""Seeded inputs and the output checks, written independently of ietrewind.

Nothing here imports the package under test: starts, move scripts and the
maximal same-winner runs that ``group(...)`` needs come from the small
forward steppers below, so a change to ``rauzy`` or ``zorich`` cannot change
what the benchmark asks the program to do.  The same steppers replay every
path file the program writes, which is how the output checks work.
"""
from __future__ import annotations

import random


class CheckFailed(Exception):
    """A command's output disagrees with what its inputs imply."""


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


# --- starts ---------------------------------------------------------------

def _irreducible_rows(row0, row1):
    seen0, seen1 = set(), set()
    for a, b in zip(row0[:-1], row1[:-1]):
        seen0.add(a)
        seen1.add(b)
        if seen0 == seen1:
            return False
    return True


def _irreducible_image(image):
    top = 0
    for k, v in enumerate(image[:-1], 1):
        top = max(top, v)
        if top == k:
            return False
    return True


def random_pair(rng: random.Random, n: int) -> dict:
    alphabet = list(range(1, n + 1))
    while True:
        row0, row1 = alphabet[:], alphabet[:]
        rng.shuffle(row0)
        rng.shuffle(row1)
        if _irreducible_rows(row0, row1):
            return {"alphabet": alphabet, "p0": row0, "p1": row1}


def random_perm(rng: random.Random, n: int) -> dict:
    image = list(range(1, n + 1))
    while True:
        rng.shuffle(image)
        if _irreducible_image(image):
            return {"n": n, "image": image[:]}


# --- forward steppers -----------------------------------------------------

def pair_moves(start: dict, types) -> list:
    """(winner, loser) of each elementary move of ``types`` from ``start``."""
    rows = [list(start["p0"]), list(start["p1"])]
    out = []
    for t in types:
        winner = rows[t][-1]
        loser = rows[1 - t].pop()
        rows[1 - t].insert(rows[1 - t].index(winner) + 1, loser)
        out.append((winner, loser))
    return out


def perm_moves(start: dict, types) -> list:
    """(winner, loser, k) of each elementary permutation move.

    Type 0: the position of n loses to n, and values above the last one
    shift up.  Type 1: the last value tucks in behind the slot of n, which
    wins at that position k.
    """
    image = list(start["image"])
    n = len(image)
    out = []
    for t in types:
        k = image.index(n) + 1
        if t == 0:
            last = image[-1]
            image = [v if v <= last else (last + 1 if v == n else v + 1) for v in image]
            out.append((n, k, None))
        else:
            image = image[:k] + [image[-1]] + image[k:-1]
            out.append((k, n, k))
    return out


def type_runs(types) -> list:
    """Lengths of the maximal runs of equal type.

    In both flavours a move's winner only changes when its type does, so
    these are the maximal same-winner runs as well.
    """
    runs = []
    for i, t in enumerate(types):
        if i and t == types[i - 1]:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


def power_work(start: dict, types) -> int:
    """Sum over type-1 runs of (position of n) x (run length - 1).

    Reading a grouped permutation record back means recognising each type-1
    block as a power of the type-1 matrix at position k; a search that tries
    k = 1, 2, ... and multiplies each candidate up to the block's power does
    this many matrix products.  Records of one length vary in it by about a
    fifth, so the workload holds it fixed.
    """
    moves = perm_moves(start, types)
    work, i = 0, 0
    for length in type_runs(types):
        if types[i] == 1:
            work += moves[i][2] * (length - 1)
        i += length
    return work


def script(types, grouping=None) -> str:
    tokens = []
    pos = 0
    for length in type_runs(types):
        tokens.append(f"{types[pos]}x{length}")
        pos += length
    if grouping:
        tokens.append("group(" + ",".join(map(str, grouping)) + ")")
    return ",".join(tokens)


def complete_stretches(winners, alphabet) -> int:
    target, seen, count = set(alphabet), set(), 0
    for w in winners:
        seen.add(w)
        if seen >= target:
            count += 1
            seen = set()
    return count


# --- path-file checks -----------------------------------------------------

def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _type1(n, k):
    # 1-based: rows up to k keep their diagonal, rows k..n-1 also step one
    # column right, rows past k lose the diagonal, and row n visits k+1.
    m = _identity(n)
    for i in range(k - 1, n - 1):
        m[i][i + 1] = 1
    for i in range(k, n):
        m[i][i] = 0
    m[n - 1][k] = 1
    return m


def _check_blocks(obj, blocks, matrix_of):
    """``blocks``: expected (winner, losers counted, type, k) per record entry."""
    moves, matrices = obj.get("moves", []), obj.get("matrices", [])
    expect(len(moves) == len(blocks) == len(matrices), "record length differs from the script")
    for j, ((winner, counts, t, k), move, mat) in enumerate(zip(blocks, moves, matrices), 1):
        power = sum(counts.values())
        got = (move["winner"], frozenset(move["losers"]), move["type"], move["k"], move["power"])
        expect(got == (winner, frozenset(counts), t, k, power), f"move {j} differs from the replay")
        expect(mat == matrix_of(winner, counts, t, k, power), f"matrix {j} differs from the replay")


def check_pair_file(obj, start, types, grouped):
    """The file written for ``types`` from ``start`` parses back to that record."""
    n = len(start["alphabet"])
    expect(obj.get("flavor") == "pair" and obj.get("start") == start, "start or flavour changed")
    expect(obj.get("alphabet") == start["alphabet"], "alphabet changed")
    pos = {s: i for i, s in enumerate(start["alphabet"])}
    elementary = pair_moves(start, types)
    runs = type_runs(types) if grouped else [1] * len(types)
    expect(obj.get("grouping") == (runs if grouped else None), "grouping differs from the runs")
    blocks, i = [], 0
    for length in runs:
        counts: dict = {}
        for winner, loser in elementary[i:i + length]:
            counts[loser] = counts.get(loser, 0) + 1
        blocks.append((elementary[i][0], counts, types[i], None))
        i += length

    def matrix(winner, counts, t, k, power):
        m = _identity(n)
        for loser, c in counts.items():
            m[pos[winner]][pos[loser]] = c
        return m

    _check_blocks(obj, blocks, matrix)


def check_perm_file(obj, start, types, grouped):
    n = start["n"]
    expect(obj.get("flavor") == "permutation" and obj.get("start") == start, "start or flavour changed")
    elementary = perm_moves(start, types)
    runs = type_runs(types) if grouped else [1] * len(types)
    expect(obj.get("grouping") == (runs if grouped else None), "grouping differs from the runs")
    blocks, i = [], 0
    for length in runs:
        counts: dict = {}
        for winner, loser, _ in elementary[i:i + length]:
            counts[loser] = counts.get(loser, 0) + 1
        blocks.append((elementary[i][0], counts, types[i], elementary[i][2]))
        i += length

    def matrix(winner, counts, t, k, power):
        if t == 0:
            m = _identity(n)
            for loser, c in counts.items():
                m[n - 1][loser - 1] = c
            return m
        m = base = _type1(n, k)
        for _ in range(power - 1):
            m = _matmul(m, base)
        return m

    _check_blocks(obj, blocks, matrix)


def check_walk_file(obj, start, flavor, target):
    """A ``--until-c-complete`` file: replaying its own types from our start
    gives its moves, and the walk stops as soon as ``target`` stretches close."""
    types = [m["type"] for m in obj.get("moves", [])]
    expect(types and all(t in (0, 1) for t in types), "walk record lacks move types")
    if flavor == "pair":
        check_pair_file(obj, start, types, grouped=False)
        winners = [w for w, _ in pair_moves(start, types)]
        alphabet = start["alphabet"]
        expect(complete_stretches(winners, alphabet) == target, "walk has the wrong completeness")
        expect(complete_stretches(winners[:-1], alphabet) < target, "walk ran past completeness")
    else:
        check_perm_file(obj, start, types, grouped=False)
        # Winners are tracked in start labels: a type-1 move at k relabels
        # the positions behind k (the n-th label drops into slot k+1).
        n = start["n"]
        tau = list(range(1, n + 1))
        labelled = []
        for (_, _, k), t in zip(perm_moves(start, types), types):
            labelled.append(tau[n - 1] if t == 0 else tau[k - 1])
            if t == 1:
                tau = tau[:k] + [tau[n - 1]] + tau[k:n - 1]
        expect(complete_stretches(labelled, range(1, n + 1)) == target, "walk has the wrong completeness")
        expect(complete_stretches(labelled[:-1], range(1, n + 1)) < target, "walk ran past completeness")
    return len(types)


def agrees_pair(rows, q0, q1) -> bool:
    for row, blocks in zip(rows, (q0, q1)):
        pos = 0
        for block in blocks:
            if set(row[pos:pos + len(block)]) != set(block):
                return False
            pos += len(block)
    return True


def agrees_perm(image, blocks) -> bool:
    low = 1
    for block in blocks:
        if {image[i - 1] for i in block} != set(range(low, low + len(block))):
            return False
        low += len(block)
    return True


def check_recovered(report, start):
    """The true start (or, for pairs, its inverse) agrees with the knowledge."""
    if "image" in start:
        expect(report.get("flavor") == "permutation", "recovered the wrong flavour")
        expect(agrees_perm(start["image"], report["Q"]), "start disagrees with the recovered Q")
        return
    rows = (start["p0"], start["p1"])
    q0, q1 = report.get("Q0"), report.get("Q1")
    expect(
        agrees_pair(rows, q0, q1) or agrees_pair(rows[::-1], q0, q1),
        "start disagrees with the recovered Q0/Q1",
    )


def check_verify(out, start, oracle):
    expect(out.get("ok") is True, "verify did not report ok")
    checks = out.get("checks", {})
    if start is not None:
        expect(checks.get("start_agrees") is True, "verify lacks start_agrees")
        check_recovered(out["recovered"], start)
    if oracle:
        expect(checks.get("oracle_matches") is True, "verify lacks oracle_matches")


def check_sharpness(obj, n):
    """Report gate plus a replay of both alternatives by our own stepper."""
    report = obj.get("report", {})
    expect(report.get("alternatives_verified") is True, "alternatives not verified")
    expect(report.get("stretches") == n.bit_length() - 2, "stretches != floor(log2 n) - 1")
    moves = obj.get("moves", [])
    types = [m["type"] for m in moves]
    recorded = [(m["winner"], tuple(m["losers"])) for m in moves]
    alternatives = report.get("alternatives", [])
    expect(len(alternatives) == 2 and alternatives[0] != alternatives[1], "fewer than two alternatives")
    complete = complete_stretches([w for w, _ in recorded], range(1, n + 1))
    expect(complete == report["stretches"], "record completeness differs from the report")
    for alt in alternatives:
        replay = [(w, (l,)) for w, l in pair_moves(alt, types)]
        expect(replay == recorded, "an alternative does not replay the record")
        expect(agrees_pair((alt["p0"], alt["p1"]), report["Q0"], report["Q1"]), "alternative outside Q")
    return len(moves)


def check_sharpness_recovered(report, sharp_report):
    expect(
        (report.get("Q0"), report.get("Q1")) == (sharp_report["Q0"], sharp_report["Q1"]),
        "recovered knowledge differs from the construction's",
    )
