#!/usr/bin/env python3
"""Round-trip experiment: simulate random paths, rewind, compare.

Walks a random irreducible pair, and a random irreducible permutation, of
each trial's size until the winner sequence has as many complete stretches
as the uniqueness threshold demands.  Reports how often recovery settles
for each flavour and whether a settled start ever differs from the true one.
Each permutation walk is also replayed by the forward oracle, which must
find the start and, where the enumeration is within its bound, exactly the
enumerated starts.
"""
from __future__ import annotations

import argparse
import random
import sys
from collections import defaultdict

from ietrewind.core import Permutation, inverse, is_irreducible_pair, is_irreducible_perm, make_pair
from ietrewind.oracle import forward_initial_perms
from ietrewind.rauzy import simulate_pair, simulate_perm, walk_until_complete
from ietrewind.recovery import (
    BoundExceeded,
    agrees_perm,
    enumerate_agreeing_perms,
    recover_pair,
    recover_perm_moves,
    uniqueness_threshold,
)


def random_pair(rng, n):
    row1 = list(range(1, n + 1))
    while True:
        rng.shuffle(row1)
        cand = make_pair(tuple(range(1, n + 1)), tuple(row1))
        if is_irreducible_pair(cand):
            return cand


def random_perm(rng, n):
    image = list(range(1, n + 1))
    while True:
        rng.shuffle(image)
        cand = Permutation(tuple(image))
        if is_irreducible_perm(cand):
            return cand


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-n", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=9)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    lengths = defaultdict(list)
    settled = defaultdict(int)
    perm_settled = defaultdict(int)
    mismatches = 0
    for _ in range(args.trials):
        n = rng.randint(args.min_n, args.max_n)
        start = random_pair(rng, n)
        types, _ = walk_until_complete(start, rng, uniqueness_threshold(n))
        path = simulate_pair(start, types)
        pop, _ = recover_pair(path.moves, alphabet=start.alphabet)
        lengths[n].append(len(types))
        if pop.is_settled():
            settled[n] += 1
            if pop.settled_pair() not in (start, inverse(start)):
                mismatches += 1
        perm = random_perm(rng, n)
        types, _ = walk_until_complete(perm, rng, uniqueness_threshold(n))
        moves = simulate_perm(perm, types).moves
        blocks = recover_perm_moves(moves, n)
        if len(blocks) == n:
            perm_settled[n] += 1
            if not agrees_perm(perm, blocks):
                mismatches += 1
        found = forward_initial_perms(moves, n)
        try:
            enumerated = enumerate_agreeing_perms(blocks)
        except BoundExceeded:  # the oracle must still find the start
            enumerated = None
        if perm not in found or enumerated not in (None, found):
            mismatches += 1

    print(f"{'n':>3} {'trials':>7} {'settled':>8} {'avg moves':>10} {'perm settled':>13}")
    for n in sorted(lengths):
        runs = lengths[n]
        print(f"{n:>3} {len(runs):>7} {settled[n]:>8} {sum(runs) / len(runs):>10.1f} {perm_settled[n]:>13}")
    print(f"mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
