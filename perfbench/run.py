"""The iet-rewind benchmark: the four CLI subcommands driven as a user would.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One single-threaded client runs a closed loop: each command starts after
the previous one exits.  Commands run as ``python -m ietrewind.cli`` with
``src`` on ``PYTHONPATH``, so nothing needs installing.  A pass runs every
record of the workload once; passes repeat while another one fits in
``--seconds``, and each metric is the median over passes.  After each pass
every output is checked against the benchmark's own replay of its inputs
(``records.py``); a command that exits non-zero or fails its check counts as
failed.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` each pass is run twice on the same inputs, plain and under
``trace_child.py``, and the last line carries the per-layer metrics; the
line before it is a detail object with per-call samples either way.
``--smoke`` shrinks every size so a run takes seconds (``test_smoke.py``).

Workloads (why each was chosen: the ``why`` of each in BENCHMARK.json):

pair-zorich       pair flavour, n=32, two records of 2000 random moves per
                  pass, one grouped into maximal same-winner runs, one not;
                  each goes through simulate, recover, verify.
sharpness-rewind  sharpness --n N for two sizes per pass, N from 128..131
                  by the seed and 288-N, so the pass spans 128..160 with
                  nearly constant total work; recover and verify each file.
small-oracle      the brute-force oracle sizes: an ungrouped permutation
                  record at n=8 and random walks to 3 complete stretches
                  (pair and permutation, n=6) through verify --oracle, and
                  a grouped permutation record at n=16 through simulate,
                  recover, verify.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import records
from metrics import DETAIL, END_TO_END, PER_LAYER
from records import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
SETUP_REPEATS = 5

WORKLOADS = ("pair-zorich", "sharpness-rewind", "small-oracle")

SIZES = {
    False: {"pair_n": 32, "pair_len": 2000, "sharp_low": (128, 131), "sharp_sum": 288,
            "oracle_perm": (8, 48), "walk_n": 6, "walk_c": 3, "long_perm": (16, 600, 1185)},
    True: {"pair_n": 8, "pair_len": 200, "sharp_low": (16, 17), "sharp_sum": 34,
           "oracle_perm": (5, 24), "walk_n": 4, "walk_c": 2, "long_perm": (8, 120, 107)},
}


class SetupError(Exception):
    """The checkout cannot run the program at all."""


# --- inputs ----------------------------------------------------------------

@dataclass
class Record:
    """One path file: the command that writes it, then the commands that read it."""

    label: str
    write: list  # ["simulate", ...] or ["sharpness", ...], without --out
    reads: list  # of "recover", "verify", "verify_oracle"
    check: object  # path-file object -> elementary moves; raises CheckFailed
    start: dict | None = None
    report: dict | None = None  # a sharpness file's own report, once checked


def _scripted(label, start, types, grouped, reads):
    flavor_check = records.check_pair_file if "p0" in start else records.check_perm_file
    grouping = records.type_runs(types) if grouped else None

    def check(obj):
        flavor_check(obj, start, types, grouped)
        return len(types)

    write = ["simulate", "--start", f"{label}.start.json", "--script", records.script(types, grouping)]
    return Record(label, write, reads, check, start)


def _walk(label, start, flavor, seed, target):
    def check(obj):
        return records.check_walk_file(obj, start, flavor, target)

    write = ["simulate", "--start", f"{label}.start.json", "--seed", str(seed), "--until-c-complete", str(target)]
    return Record(label, write, ["verify_oracle"], check, start)


def _sharp(label, n):
    def check(obj):
        return records.check_sharpness(obj, n)

    return Record(label, ["sharpness", "--n", str(n)], ["recover", "verify"], check)


def _long_perm(rng, n, length, work):
    """A random start and types whose power work is within 3% of ``work``."""
    while True:
        start = records.random_perm(rng, n)
        types = [rng.randint(0, 1) for _ in range(length)]
        if abs(records.power_work(start, types) - work) <= 0.03 * work:
            return start, types


def plan(workload: str, seed: int, index: int, smoke: bool) -> list:
    """The records of pass ``index``: a pure function of its arguments."""
    size = SIZES[smoke]
    rng = random.Random(f"{workload}/{seed}/{index}")
    both = ["recover", "verify"]
    if workload == "pair-zorich":
        n, length = size["pair_n"], size["pair_len"]
        out = []
        for label, grouped in (("grouped", True), ("ungrouped", False)):
            start = records.random_pair(rng, n)
            types = [rng.randint(0, 1) for _ in range(length)]
            out.append(_scripted(label, start, types, grouped, both))
        return out
    if workload == "sharpness-rewind":
        # Two sizes mirrored about the middle of the band keep the pass's
        # total work nearly the same whatever the seed picks.
        low = rng.randint(*size["sharp_low"])
        return [_sharp("low", low), _sharp("high", size["sharp_sum"] - low)]
    if workload == "small-oracle":
        n8, len8 = size["oracle_perm"]
        walk_n, walk_c = size["walk_n"], size["walk_c"]
        # The permutation oracle's cost per candidate is set by the first
        # move's type (a type-1 step multiplies matrices, a type-0 step adds
        # a column), so that type is fixed rather than a coin flip.  The
        # record is ungrouped: on grouped permutation records with n >= 7,
        # recover can admit a permutation the oracle rejects and verify
        # --oracle exits 3, a known defect that belongs in the tests.
        t8 =[0] + [rng.randint(0, 1) for _ in range(len8 - 1)]
        return [
            _scripted("perm-oracle", records.random_perm(rng, n8), t8, False, ["verify_oracle"]),
            _walk("pair-walk", records.random_pair(rng, walk_n), "pair", rng.randrange(10**6), walk_c),
            _walk("perm-walk", records.random_perm(rng, walk_n), "permutation", rng.randrange(10**6), walk_c),
            _scripted("perm-long", *_long_perm(rng, *size["long_perm"]), True, both),
        ]
    raise ValueError(f"unknown workload {workload}")


# --- running commands ------------------------------------------------------

@dataclass
class Call:
    sub: str
    record: str
    wall_s: float
    rss_mb: float
    out: Path
    spans: Path | None
    moves: int = 0
    error: str | None = None


class Runner:
    """Starts children one at a time and reaps each with its own rusage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.env = dict(os.environ, PYTHONPATH=path)

    def child(self, argv):
        """(exit code, wall seconds, peak RSS in MB); killed at the deadline."""
        with open(WORK / "stderr.txt", "wb") as err:
            begin = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=WORK, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - begin
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, sub, record, args, out, traced):
        spans = None
        if traced:
            spans = out.with_suffix(".spans.json")
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans)]
        else:
            argv = [sys.executable, "-m", "ietrewind.cli"]
        code, wall, rss = self.child(argv + args + ["--out", str(out)])
        call = Call(sub, record, wall, rss, out, spans)
        if code != 0:
            tail = (WORK / "stderr.txt").read_text(errors="replace").strip().splitlines()
            call.error = f"exit {code}" + (f": {tail[-1]}" if tail else "")
        return call


def run_records(runner: Runner, recs: list, traced: bool):
    """Run every command of the pass back to back; returns (calls, wall)."""
    calls = []
    begin = time.perf_counter()
    for rec in recs:
        path = WORK / f"{rec.label}.json"
        calls.append(runner.cli(rec.write[0], rec.label, rec.write, path, traced))
        for sub in rec.reads:
            args = ["verify", str(path), "--oracle", "--jobs", "1"] if sub == "verify_oracle" else [sub, str(path)]
            calls.append(runner.cli(sub, rec.label, args, WORK / f"{rec.label}.{sub}.json", traced))
    return calls, time.perf_counter() - begin


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(recs: list, calls: list) -> dict:
    """Fill in each call's moves and error; returns bytes written per record."""
    by_record = {}
    for call in calls:
        by_record.setdefault(call.record, []).append(call)
    written = {}
    for rec in recs:
        moves = 0
        for call in by_record[rec.label]:
            if call.error is None:
                try:
                    obj = _load(call.out)
                    if call.sub in ("simulate", "sharpness"):
                        written[rec.label] = call.out.stat().st_size
                        rec.report = obj.get("report")
                        moves = rec.check(obj)
                    elif rec.start is None:
                        report = obj if call.sub == "recover" else obj.get("recovered", {})
                        if call.sub != "recover":
                            records.check_verify(obj, None, False)
                        records.check_sharpness_recovered(report, rec.report)
                    elif call.sub == "recover":
                        records.check_recovered(obj, rec.start)
                    else:
                        records.check_verify(obj, rec.start, call.sub == "verify_oracle")
                except (CheckFailed, OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                    call.error = f"{type(exc).__name__}: {exc}"
            call.moves = moves
    return written


# --- metrics ---------------------------------------------------------------

@dataclass
class Pass:
    calls: list
    wall_s: float
    written: dict
    layers: dict = field(default_factory=dict)
    split: dict = field(default_factory=dict)


def pass_metrics(p: Pass) -> dict:
    def total(*subs):
        return sum(c.wall_s for c in p.calls if c.sub in subs)

    moves = sum(c.moves for c in p.calls)
    return {
        "wall_s": p.wall_s,
        "write_s": total("simulate", "sharpness"),
        "recover_s": total("recover"),
        "verify_s": total("verify"),
        "moves_per_s": moves / p.wall_s,
        "path_bytes": sum(p.written.values()),
        "peak_rss_mb": max(c.rss_mb for c in p.calls),
        "simulate_s": total("simulate"),
        "sharpness_s": total("sharpness"),
        "verify_oracle_s": total("verify_oracle"),
        "failed_frac": sum(c.error is not None for c in p.calls) / len(p.calls),
    }


def layer_totals(calls: list) -> tuple:
    """Per-layer metric values summed over ``calls``, and the same per subcommand."""
    whole = {"spans": {}, "counts": {}, "wall_s": 0.0}
    by_sub: dict = {}
    for call in calls:
        if call.spans is None or not call.spans.exists():
            continue
        data = _load(call.spans)
        for into in (whole, by_sub.setdefault(call.sub, {"spans": {}, "counts": {}, "wall_s": 0.0})):
            into["wall_s"] += call.wall_s
            for name, s in data["spans"].items():
                calls_self = into["spans"].setdefault(name, [0, 0.0])
                calls_self[0] += s["calls"]
                calls_self[1] += s["self_s"]
            for name, v in data["counts"].items():
                into["counts"][name] = into["counts"].get(name, 0) + v

    def values(part):
        out = {"wall_s": part["wall_s"]}
        for name in PER_LAYER:
            if name.endswith("_s"):
                out[name] = part["spans"].get(name[:-2], [0, 0.0])[1]
            elif name.endswith(".calls"):
                out[name] = part["spans"].get(name[: -len(".calls")], [0, 0.0])[0]
            else:
                out[name] = part["counts"].get(name, 0)
        checked = out["oracle.candidates_checked"]
        out["oracle.hit_ratio"] = part["counts"].get("oracle.realizers", 0) / checked if checked else 0.0
        return out

    return values(whole), {sub: values(part) for sub, part in by_sub.items()}


def dominance(workload: str, split: dict) -> dict:
    """The share each workload's stated dominant layer takes, from one traced pass."""
    def share(sub, *names):
        part = split.get(sub)
        return sum(part[n] for n in names) / part["wall_s"] if part else 0.0

    if workload == "pair-zorich":
        return {
            "simulate: zorich+matrices share (> 0.5)": share("simulate", "zorich.accelerate_s", "matrices.matmul_s"),
            "recover: recovery share (< 0.05)": share("recover", "recovery.recover_s", "recovery.rewind_s",
                                                      "recovery.enumerate_s"),
        }
    if workload == "sharpness-rewind":
        return {"recover: recovery.rewind share (> 0.5)": share("recover", "recovery.rewind_s")}
    return {"verify --oracle: oracle.brute share (> 0.5)": share("verify_oracle", "oracle.brute_s")}


# --- the run ---------------------------------------------------------------

def setup(args, runner: Runner) -> float:
    """Median over several set-ups of CLI import plus input generation."""
    if not (ROOT / "src" / "ietrewind" / "cli.py").is_file():
        raise SetupError(f"no program source under {ROOT / 'src'}")
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    code, _, _ = runner.child([sys.executable, "-c", "import ietrewind.cli"])  # warm bytecode caches
    if code != 0:
        raise SetupError("cannot import ietrewind.cli from src/")
    times = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        code, _, _ = runner.child([sys.executable, "-c", "import ietrewind.cli"])
        plan(args.workload, args.seed, 0, args.smoke)
        times.append(time.perf_counter() - begin)
        if code != 0:
            raise SetupError("cannot import ietrewind.cli from src/")
    return statistics.median(times)


def run(args) -> tuple:
    """(detail object, result object) of one benchmark run."""
    started = time.monotonic()
    runner = Runner(started + RUN_LIMIT_S)
    setup_s = setup(args, runner)
    measure_from = time.monotonic()
    plain, traced, failures = [], [], []
    samples: dict = {}
    longest = 0.0
    index = 0
    while True:
        begin = time.monotonic()
        recs = plan(args.workload, args.seed, index, args.smoke)
        for rec in recs:
            if rec.start is not None:
                (WORK / f"{rec.label}.start.json").write_text(json.dumps(rec.start))
        for is_traced in ([False, True] if args.trace else [False]):
            calls, wall = run_records(runner, recs, is_traced)
            written = check_pass(recs, calls)
            p = Pass(calls, wall, written)
            if is_traced:
                p.layers, p.split = layer_totals(calls)
                traced.append(p)
            else:
                plain.append(p)
                for c in calls:
                    samples.setdefault(c.sub, {}).setdefault(c.record, []).append(round(c.wall_s, 4))
            failures += [f"pass {index} {c.sub} {c.record}: {c.error}" for c in calls if c.error]
        index += 1
        longest = max(longest, time.monotonic() - begin)
        now = time.monotonic()
        if failures or now - measure_from + longest > args.seconds or now + longest > started + RUN_LIMIT_S:
            break
    shutil.rmtree(WORK, ignore_errors=True)

    rows = [pass_metrics(p) for p in plain]
    units = {**{k: u for k, (u, _) in END_TO_END.items()}, **{k: u for k, (u, _) in DETAIL.items()}}
    e2e = {name: {"value": statistics.median(r[name] for r in rows), "unit": units[name]} for name in rows[0]}
    e2e["setup_s"] = {"value": setup_s, "unit": "s"}
    attempted = sum(len(p.calls) for p in plain + traced)
    failed = sum(c.error is not None for p in plain + traced for c in p.calls)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "metrics": {k: v for k, v in e2e.items() if k in END_TO_END or rows[0][k] or k == "failed_frac"},
        "calls": {sub: {"count": sum(map(len, s.values())), "samples_s": s} for sub, s in samples.items()},
        "first_pass_bytes": plain[0].written,
        "failures": failures[:20],
    }
    if args.trace:
        layers = {name: statistics.median(p.layers[name] for p in traced) for name in PER_LAYER}
        layers["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                      - statistics.median(p.wall_s for p in plain))
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
        detail["layers_by_subcommand"] = traced[0].split
        detail["dominant_layer_share"] = dominance(args.workload, traced[0].split)
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
    return detail, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    try:
        detail, result = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        shutil.rmtree(WORK, ignore_errors=True)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
