"""Names, units and meaning of every metric the benchmark reports.

``END_TO_END`` is printed by every untraced run.  Each entry exists on all
three workloads, which every name in ``BENCHMARK.json`` must.  ``DETAIL`` are
end-to-end figures that only some workloads have (a workload runs
``sharpness`` or ``verify --oracle`` or neither); they appear on the detail
line, next to the per-call samples.

``PER_LAYER`` is printed by traced runs.  Each entry names the end-to-end
metric and workload it should move, as ``metric@workload``.  A ``_s`` name
is the self time of the span of that name (span time minus the time of the
spans it encloses), ``.calls`` its call count, anything else a counter.
"""
from __future__ import annotations

END_TO_END = {
    "wall_s": ("s", "wall time of the pass"),
    "write_s": ("s", "pass total of the commands that write path files: simulate or sharpness"),
    "recover_s": ("s", "pass total of recover"),
    "verify_s": ("s", "pass total of verify without --oracle"),
    "moves_per_s": ("1/s", "elementary moves handled by the pass's commands over wall_s"),
    "path_bytes": ("bytes", "bytes of the path files the pass wrote"),
    "peak_rss_mb": ("MB", "highest peak RSS of any command in the pass"),
    "setup_s": ("s", "import time of the CLI plus input generation, median of several"),
}

DETAIL = {
    "simulate_s": ("s", "pass total of simulate"),
    "sharpness_s": ("s", "pass total of sharpness"),
    "verify_oracle_s": ("s", "pass total of verify --oracle --jobs 1"),
    "failed_frac": ("ratio", "commands failing their exit code or output check over commands run"),
}

PZ, SR, SO = "pair-zorich", "sharpness-rewind", "small-oracle"
CLI_IO = [f"{m}@{PZ}" for m in ("recover_s", "verify_s", "simulate_s", "path_bytes")] + [f"sharpness_s@{SR}"]

# name: (unit, better, moves)
PER_LAYER = {
    "cli.json_read_s": ("s", "lower", CLI_IO),
    "cli.json_emit_s": ("s", "lower", CLI_IO),
    "cli.load_path_file_s": ("s", "lower", CLI_IO),
    "rauzy.simulate_s": ("s", "lower", [f"simulate_s@{PZ}"]),
    "rauzy.steps": ("count", "lower", [f"simulate_s@{PZ}"]),
    "rauzy.decode_A_s": ("s", "lower", [f"recover_s@{SO}", f"verify_s@{SO}"]),
    "rauzy.decode_A.calls": ("count", "lower", [f"recover_s@{SO}", f"verify_s@{SO}"]),
    "rauzy.c_completeness_s": ("s", "lower", [f"simulate_s@{SO}"]),
    "rauzy.c_completeness.calls": ("count", "lower", [f"simulate_s@{SO}"]),
    "matrices.matmul_s": ("s", "lower", [f"simulate_s@{PZ}", f"peak_rss_mb@{PZ}", f"recover_s@{SO}"]),
    "matrices.matmul.calls": ("count", "lower", [f"simulate_s@{PZ}", f"recover_s@{SO}"]),
    "matrices.mult_adds": ("count", "lower", [f"simulate_s@{PZ}", f"recover_s@{SO}"]),
    "zorich.accelerate_s": ("s", "lower", [f"simulate_s@{PZ}"]),
    "zorich.extract_move_s": ("s", "lower", [f"recover_s@{PZ}", f"verify_s@{PZ}"]),
    "zorich.extract_move.calls": ("count", "lower", [f"recover_s@{PZ}", f"verify_s@{PZ}"]),
    "zorich.breakup_s": ("s", "lower", [f"recover_s@{PZ}", f"verify_s@{PZ}"]),
    "zorich.unit_factors": ("count", "lower", [f"recover_s@{PZ}", f"verify_s@{PZ}"]),
    "lifting.relabel_s": ("s", "lower", [f"simulate_s@{SO}"]),
    "lifting.relabel.calls": ("count", "lower", [f"simulate_s@{SO}"]),
    "recovery.recover_s": ("s", "lower", [f"recover_s@{SR}", f"verify_s@{SR}"]),
    "recovery.rewind_s": ("s", "lower", [f"recover_s@{SR}", f"verify_s@{SR}"]),
    "recovery.rewind.calls": ("count", "lower", [f"recover_s@{SR}", f"verify_s@{SR}"]),
    "recovery.enumerate_s": ("s", "lower", [f"recover_s@{SO}"]),
    "recovery.candidates": ("count", "lower", [f"recover_s@{SO}"]),
    "sharpness.build_s": ("s", "lower", [f"sharpness_s@{SR}"]),
    "sharpness.moves": ("count", "lower", [f"sharpness_s@{SR}"]),
    "oracle.brute_s": ("s", "lower", [f"verify_oracle_s@{SO}"]),
    "oracle.candidates_checked": ("count", "lower", [f"verify_oracle_s@{SO}"]),
    "oracle.hit_ratio": ("ratio", "higher", [f"verify_oracle_s@{SO}"]),
    "oracle.replay_s": ("s", "lower", [f"sharpness_s@{SR}"]),
    "core.irreducible_s": ("s", "lower", [f"simulate_s@{PZ}", f"verify_oracle_s@{SO}"]),
    "core.irreducible.calls": ("count", "lower", [f"simulate_s@{PZ}", f"verify_oracle_s@{SO}"]),
    "trace.overhead_s": ("s", "lower", [f"wall_s@{PZ}", f"wall_s@{SR}", f"wall_s@{SO}"]),
}
