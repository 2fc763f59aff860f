#!/usr/bin/env python3
"""Layer cost of ``recover``: the in-process time of each of its phases.

    PYTHONPATH=src python scripts/phase_cost.py PATH...

For each path file it times the four phases that ``recover PATH`` runs, in
turn: ``cli._read_json`` (the file to a JSON value), ``cli.load_path_file``
(checking it and building its moves), ``cli._recover_report`` (the rewind
and the enumeration of agreeing starts) and ``cli._emit`` (writing the
report, here to the null device).  Each phase runs seven times on the
previous phase's last result, and the shortest time is printed, in
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="PATH", help="path files, as recover reads them")
    args = parser.parse_args(argv)
    gc.disable()
    print("read_json_s  load_path_file_s  recover_report_s  emit_s  path")
    for path in args.paths:
        read, obj = best_time(cli._read_json, path)
        load, data = best_time(cli.load_path_file, obj)
        recover, (report, *_) = best_time(cli._recover_report, data)
        emit, _ = best_time(cli._emit, report, os.devnull)
        print(f"{read:<12.6f} {load:<17.6f} {recover:<17.6f} {emit:<9.6f} {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
