#!/usr/bin/env python3
"""Layer cost of ``recover`` and ``sharpness``: the in-process time of each of their phases.

    PYTHONPATH=src python scripts/phase_cost.py PATH...
    PYTHONPATH=src python scripts/phase_cost.py --sharpness N...

For each path file it times the four phases that ``recover PATH`` runs, in
turn: ``cli._read_json`` (the file to a JSON value), ``cli.load_path_file``
(checking it and building its moves), ``cli._recover_report`` (the rewind
and the enumeration of agreeing starts) and ``cli._emit`` (writing the
report, here to the null device).  For each size given with
``--sharpness`` it times the four phases of ``sharpness --n N``:
``build_ambiguous_path`` (the record and the knowledge it leaves),
``cli._alternatives`` (the agreeing starts, and the two it replays),
``cli._replays`` (the two confirming forward replays) and ``cli._emit``
(writing the path file to the null device).  Each phase runs seven times on
the previous phase's last result, and the shortest time is printed, in
seconds.  Everything runs in-process with the cyclic collector off, as the
CLI runs its commands.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from ietrewind import cli

ROUNDS = 7


def best_time(fn, *args) -> tuple:
    """The shortest of ``ROUNDS`` calls of ``fn(*args)``, and its last result."""
    best = float("inf")
    for _ in range(ROUNDS):
        begin = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - begin)
    return best, result


def recover_phases(paths):
    print("read_json_s  load_path_file_s  recover_report_s  emit_s  path")
    for path in paths:
        read, obj = best_time(cli._read_json, path)
        load, data = best_time(cli.load_path_file, obj)
        recover, (report, *_) = best_time(cli._recover_report, data)
        emit, _ = best_time(cli._emit, report, os.devnull)
        print(f"{read:<12.6f} {load:<17.6f} {recover:<17.6f} {emit:<9.6f} {path}")


def sharpness_phases(sizes):
    cli._bind("sharpness", "recovery", "oracle")
    print("build_s   alternatives_s  replays_s  emit_s    n")
    for n in sizes:
        build, result = best_time(cli.build_ambiguous_path, n)
        pick, (_, first, mate) = best_time(cli._alternatives, result.start)
        replay, _ = best_time(cli._replays, result.runs, first, mate)
        emit, _ = best_time(cli._emit, cli._sharpness_obj(n), os.devnull)
        print(f"{build:<9.6f} {pick:<15.6f} {replay:<10.6f} {emit:<9.6f} {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", metavar="PATH", help="path files, as recover reads them")
    parser.add_argument("--sharpness", type=int, nargs="+", default=[], metavar="N",
                        help="sizes of sharpness records to build and write")
    args = parser.parse_args(argv)
    if not args.paths and not args.sharpness:
        parser.error("give path files or --sharpness sizes")
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.paths:
            recover_phases(args.paths)
        if args.sharpness:
            sharpness_phases(args.sharpness)
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
