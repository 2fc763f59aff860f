"""Run one ``ietrewind.cli`` command with its module boundaries timed.

    python perfbench/trace_child.py SPANS.json <cli arguments...>

Spans are recorded from outside the program: each function one module
imports from another is replaced, in the importing module, by a wrapper
that times the call.  Nothing under ``src/`` changes.  Per span name the
wrapper keeps the call count and the self time (the call's duration minus
the time of the wrapped calls it made); counters ride on the same wrappers.
Everything stays in memory until the command returns, then goes to
SPANS.json as one object.  The exit code is the command's own.
"""
from __future__ import annotations

import json
import sys
import time

from ietrewind import cli, lifting, matrices, oracle, rauzy, recovery, sharpness, zorich


class Tracer:
    def __init__(self):
        self.stack = [0.0]  # per open span: time spent in the spans it encloses
        self.spans: dict = {}
        self.counts: dict = {}

    def span(self, name, fn, count=None):
        stats = self.spans.setdefault(name, [0, 0.0])
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - begin
                inner = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - inner
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _mult_adds(args, result):
    a, b = args[0], args[1]
    return {"matrices.mult_adds": len(a) * len(b) * (len(b[0]) if b else 0)}


def _found(args, result):
    return {"recovery.candidates": len(result)}


def _pair_oracle(args, result):
    return {"oracle.candidates_checked": result.candidates_checked, "oracle.realizers": len(result.realizers)}


SPANS = [
    # (module, attribute, span name, counter)
    (cli, "_read_json", "cli.json_read", None),
    (cli, "_emit", "cli.json_emit", None),
    (cli, "load_path_file", "cli.load_path_file", None),
    (cli, "simulate_pair", "rauzy.simulate", None),
    (cli, "simulate_perm", "rauzy.simulate", None),
    (cli, "c_completeness", "rauzy.c_completeness", None),
    (sharpness, "c_completeness", "rauzy.c_completeness", None),
    (cli, "decode_A", "rauzy.decode_A", None),
    (zorich, "decode_A", "rauzy.decode_A", None),
    (lifting, "decode_A", "rauzy.decode_A", None),
    (recovery, "decode_A", "rauzy.decode_A", None),
    (matrices, "matmul", "matrices.matmul", _mult_adds),  # mat_product's own calls
    (cli, "matmul", "matrices.matmul", _mult_adds),
    (rauzy, "matmul", "matrices.matmul", _mult_adds),
    (lifting, "matmul", "matrices.matmul", _mult_adds),
    (cli, "accelerate", "zorich.accelerate", None),
    (cli, "extract_move", "zorich.extract_move", None),
    (zorich, "extract_move", "zorich.extract_move", None),  # breakup's own calls
    (cli, "breakup", "zorich.breakup", lambda a, r: {"zorich.unit_factors": len(r)}),
    (recovery, "breakup", "zorich.breakup", lambda a, r: {"zorich.unit_factors": len(r)}),
    (cli, "relabel", "lifting.relabel", None),
    (cli, "recover_pair", "recovery.recover", None),
    (cli, "recover_perm", "recovery.recover", None),
    (recovery, "_loser_row_rewind", "recovery.rewind", None),
    (recovery, "_winner_row_rewind", "recovery.rewind", None),
    (sharpness, "_loser_row_rewind", "recovery.rewind", None),
    (sharpness, "_winner_row_rewind", "recovery.rewind", None),
    (cli, "enumerate_starting", "recovery.enumerate", _found),
    (cli, "enumerate_agreeing", "recovery.enumerate", _found),
    (cli, "enumerate_agreeing_perms", "recovery.enumerate", _found),
    (cli, "build_ambiguous_path", "sharpness.build", lambda a, r: {"sharpness.moves": len(r.moves)}),
    (cli, "brute_force_initial_pairs", "oracle.brute", _pair_oracle),
    (cli, "brute_force_initial_perms", "oracle.brute", lambda a, r: {"oracle.realizers": len(r)}),
    (cli, "forward_simulate", "oracle.replay", None),
    (rauzy, "is_irreducible_pair", "core.irreducible", None),
    (rauzy, "is_irreducible_perm", "core.irreducible", None),
    (recovery, "is_irreducible_pair", "core.irreducible", None),
    (recovery, "is_irreducible_perm", "core.irreducible", None),
    (oracle, "is_irreducible_pair", "core.irreducible", None),
    (oracle, "is_irreducible_perm", "core.irreducible", None),
]

COUNTERS = [
    (cli, "rauzy_step_pair", "rauzy.steps"),
    (cli, "rauzy_step_perm", "rauzy.steps"),
    (rauzy, "rauzy_step_pair", "rauzy.steps"),
    (rauzy, "rauzy_step_perm", "rauzy.steps"),
    # The permutation oracle reports no count; each replay is one candidate.
    (oracle, "_perm_realizes", "oracle.candidates_checked"),
]


def install(tracer: Tracer):
    for module, attr, name, count in SPANS:
        setattr(module, attr, tracer.span(name, getattr(module, attr), count))
    for module, attr, name in COUNTERS:
        setattr(module, attr, tracer.counter(name, getattr(module, attr)))


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    run = tracer.span("cli.main", cli.main)
    try:
        return run(cli_args)
    finally:
        spans = {name: {"calls": c, "self_s": s} for name, (c, s) in tracer.spans.items()}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
