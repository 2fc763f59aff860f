#!/usr/bin/env python3
"""Tabulate the ambiguity construction over a range of alphabet sizes.

For each n the builder emits a path whose record stays ambiguous after
floor(log2 n) - 1 complete stretches; this prints the headline numbers and,
for small n, double-checks the surviving candidates by forward replay.
"""
from __future__ import annotations

import argparse
import sys

from ietrewind.core import inverse
from ietrewind.oracle import forward_simulate
from ietrewind.recovery import enumerate_agreeing
from ietrewind.sharpness import build_ambiguous_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=8)
    parser.add_argument("--max-n", type=int, default=33)
    parser.add_argument("--replay-bound", type=int, default=16,
                        help="verify candidates by replay up to this n")
    args = parser.parse_args(argv)

    print(f"{'n':>4} {'stretches':>9} {'moves':>7} {'unresolved':>10} "
          f"{'agreeing':>8} {'replayed':>8}")
    for n in range(args.min_n, args.max_n + 1):
        result = build_ambiguous_path(n)
        agreeing = enumerate_agreeing(result.start)
        replayed = "-"
        if n <= args.replay_bound:
            ok = all(forward_simulate(c, result.moves, result.types) for c in agreeing)
            non_inv = any(c != inverse(agreeing[0]) for c in agreeing[1:])
            replayed = "ok" if ok and non_inv else "FAIL"
        print(f"{n:>4} {result.depth:>9} {len(result.moves):>7} "
              f"{result.unresolved:>10} {len(agreeing):>8} {replayed:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
