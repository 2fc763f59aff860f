#!/usr/bin/env python3
"""Forward stepping cost: per-move time of ``simulate_pair`` and ``simulate_perm``.

    PYTHONPATH=src python scripts/step_cost.py [--sizes 64 256 1024] [--moves 20000]

For each size n it simulates ``--moves`` random moves, drawn with
``random.Random(0)``, from a random irreducible pair and permutation and
prints the best of seven runs as microseconds per move, with the number of
distinct move objects the path holds (the steppers make each distinct move
once, so a larger n, with more distinct moves, pays for more of them).
Then it times the records-only walk recipe: ``random.Random(4)`` shuffles
1..1024 until the image is irreducible, and
``walk_until_complete(start, rng, 3)`` walks from it (42,378 moves).
Everything runs in-process with the cyclic collector off, as the CLI runs
its commands.
"""
from __future__ import annotations

import argparse
import gc
import random
import sys
import time

from ietrewind.core import Permutation, is_irreducible_perm, lift_perm
from ietrewind.rauzy import simulate_pair, simulate_perm, walk_until_complete


def random_perm(rng, n) -> Permutation:
    image = list(range(1, n + 1))
    while True:
        rng.shuffle(image)
        cand = Permutation(tuple(image))
        if is_irreducible_perm(cand):
            return cand


def best_time(fn) -> tuple:
    """The shortest of seven calls of ``fn``, and its last result."""
    best = float("inf")
    for _ in range(7):
        begin = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begin)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 256, 1024])
    parser.add_argument("--moves", type=int, default=20000, help="random moves per simulation")
    args = parser.parse_args(argv)
    gc.disable()

    rng = random.Random(0)
    print("n      flavor       moves  distinct  us_per_move")
    for n in args.sizes:
        perm = random_perm(rng, n)
        types = [rng.randint(0, 1) for _ in range(args.moves)]
        pair = lift_perm(perm, range(1, n + 1))
        for flavor, simulate, start in (("pair", simulate_pair, pair), ("permutation", simulate_perm, perm)):
            seconds, path = best_time(lambda: simulate(start, types))
            distinct = len({id(m) for m in path.moves})
            print(f"{n:<6} {flavor:<12} {args.moves:<6} {distinct:<9} {seconds / args.moves * 1e6:.3f}")

    rng = random.Random(4)
    start = random_perm(rng, 1024)
    begin = time.perf_counter()
    types, _ = walk_until_complete(start, rng, 3)
    seconds = time.perf_counter() - begin
    print(f"walk recipe n=1024: {len(types)} moves ({types.count(1)} of type 1) in {seconds:.3f} s, "
          f"{seconds / len(types) * 1e6:.3f} us per move")
    return 0


if __name__ == "__main__":
    sys.exit(main())
