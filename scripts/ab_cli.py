#!/usr/bin/env python3
"""A/B one CLI command between two source trees.

    scripts/ab_cli.py SRC_A SRC_B --rounds N -- <cli arguments...>

Each round runs ``python -m ietrewind.cli <cli arguments>`` once with
``SRC_A`` and once with ``SRC_B`` on ``PYTHONPATH``, alternating which side
goes first.  Each side's stdout goes to a file in a temporary directory, and
the script exits non-zero, naming the round, as soon as the two sides' bytes
differ.  Per side it prints the median and quartiles of wall time and of CPU
time (user + system), and the median and largest peak RSS.  CPU time and
peak RSS are the child's own, read from ``os.wait4``; this script imports
nothing of the package, so that its own size does not show in the child's
peak.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import statistics
import subprocess
import sys
import tempfile
import time


def run_once(src, cli_args, out_path):
    """(wall_s, cpu_s, peak_rss_mb) of one run of the command from ``src``,
    its stdout written to ``out_path``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    begin = time.perf_counter()
    with open(out_path, "wb") as out:
        child = subprocess.Popen([sys.executable, "-m", "ietrewind.cli", *cli_args], env=env, stdout=out)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - begin
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"{src}: the command exited {child.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def summary(values) -> str:
    """``median [q1, q3]`` of the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.3f} [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], usage="%(prog)s SRC_A SRC_B [--rounds N] -- CLI_ARGS...")
    parser.add_argument("src_a", help="source tree of side A (the directory holding ietrewind/)")
    parser.add_argument("src_b", help="source tree of side B")
    parser.add_argument("--rounds", type=int, default=10, help="runs per side")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args, cli_args = parser.parse_args(argv[:cut]), argv[cut + 1:]
    if not cli_args or args.rounds < 2:
        parser.error("give at least two rounds and, after --, a CLI command")
    sides = {"A": args.src_a, "B": args.src_b}
    samples = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as work:
        outs = {side: os.path.join(work, f"{side}.out") for side in sides}
        for i in range(args.rounds):
            for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                samples[side].append(run_once(sides[side], cli_args, outs[side]))
            if not filecmp.cmp(outs["A"], outs["B"], shallow=False):
                raise SystemExit(f"round {i + 1}: the outputs of A and B differ")
    print("side  wall_s median [q1, q3]   cpu_s median [q1, q3]    peak_rss_mb median / max  src")
    for side, runs in samples.items():
        wall, cpu, rss = zip(*runs)
        print(f"{side:<5} {summary(wall):<24} {summary(cpu):<24} "
              f"{statistics.median(rss):8.1f} / {max(rss):<8.1f}  {sides[side]}")
    medians = {side: statistics.median(cpu for _, cpu, _ in runs) for side, runs in samples.items()}
    print(f"B/A cpu_s median ratio {medians['B'] / medians['A']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
