#!/usr/bin/env python3
"""procsim benchmark: four workloads, host-time metrics, a traced layer split.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record-reference

Builds perfbench/procsim_perfbench.cpp against the repository's procsim
library (Release, into .bench_build/), synthesises the workload's inputs from
--seed, runs one measuring process and checks its simulated statistics.

--trace 0 times untraced core::run_once replications for S seconds and
reports the end-to-end metrics. Their times are host times scaled to a
nominal machine speed: a fixed calibration loop is timed beside every set-up
and replication, and each time is multiplied by NOMINAL_CAL_MS over the
calibration time around it, which cancels most of the drift in speed of a
machine shared with other tenants. The unscaled figures are printed too.
--trace 1 alternates untraced replications with traced ones (every layer
wrapped from outside, counters-only recorder) and reports the per-layer
split in unscaled host time. Both runs replay the reference items, whose
statistics must equal perfbench/reference.json; --record-reference rewrites
that file from the current code.

Every metric is printed by name with its unit; the last stdout line is one
JSON object {correct, attempted, failed, metrics}. The exit code is nonzero
when the build or the run fails, or when the correctness gate does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
INPUTS = os.path.join(ROOT, ".bench_build", "inputs")
BINARY = os.path.join(BUILD, "procsim_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("paper_fig02", "gabl_churn_128", "swf_backfill_64", "fleet_steal_4x64")
REFERENCE_SEED = 2008
# swf_backfill_64 replays the first jobs of several synthetic traces, since
# the queue depth, and so the cost, depends on the trace. Parsing all their
# records is set-up work.
SWF_TRACES = 8
SWF_JOBS = 12_500  # records per trace
RUN_TIMEOUT_S = 170
# Time the calibration loop takes at the nominal machine speed that the
# end-to-end times are scaled to (see to_nominal).
NOMINAL_CAL_MS = 4.0

# (name, unit) in print order.
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("rep_ms_p50", "ms"),
    ("rep_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# (name, unit, the end-to-end metric and workload it should move) in print
# order. On fleet_steal_4x64 the meshes' allocators and schedulers are built
# inside ClusterSim, where no decorator reaches: their time stays in
# core.residual_s and only the recorder's counts describe them.
PER_LAYER = (
    ("des.events", "count",
     "jobs_per_s, rep_ms_p50 on paper_fig02, fleet_steal_4x64; not swf_backfill_64"),
    ("des.events_per_job", "count",
     "jobs_per_s, rep_ms_p50 on paper_fig02, fleet_steal_4x64; not swf_backfill_64"),
    ("des.calendar_rebuckets", "count",
     "jobs_per_s, rep_ms_p50 on paper_fig02, fleet_steal_4x64; not swf_backfill_64"),
    ("core.residual_s", "s",
     "jobs_per_s, rep_ms_p50 on paper_fig02, fleet_steal_4x64; not swf_backfill_64"),
    ("core.residual_ns_per_event", "ns",
     "jobs_per_s, rep_ms_p50 on paper_fig02, fleet_steal_4x64; not swf_backfill_64"),
    ("core.begin_run_s", "s",
     "nothing end to end (<=1.3% of every workload)"),
    ("network.packets", "count",
     "jobs_per_s, rep_ms_p50 on paper_fig02; small on gabl_churn_128"),
    ("network.runs_batched", "count",
     "jobs_per_s, rep_ms_p50 on paper_fig02; small on gabl_churn_128"),
    ("network.runs_per_packet", "ratio",
     "jobs_per_s, rep_ms_p50 on paper_fig02; small on gabl_churn_128"),
    ("network.channel_blocks", "count",
     "jobs_per_s, rep_ms_p50 on paper_fig02; small on gabl_churn_128"),
    ("network.truncations", "count",
     "jobs_per_s, rep_ms_p50 on paper_fig02; small on gabl_churn_128"),
    ("alloc.allocate_s", "s",
     "jobs_per_s on gabl_churn_128 (index writes); <1% on paper_fig02"),
    ("alloc.allocate_ns", "ns",
     "jobs_per_s on gabl_churn_128 (index writes); <1% on paper_fig02"),
    ("alloc.allocate_calls", "count",
     "jobs_per_s on gabl_churn_128 (index writes); <1% on paper_fig02"),
    ("alloc.success_ratio", "ratio",
     "jobs_per_s on gabl_churn_128 (index writes); <1% on paper_fig02"),
    ("alloc.fallbacks", "count",
     "jobs_per_s on gabl_churn_128 (index writes); <1% on paper_fig02"),
    ("alloc.release_s", "s",
     "jobs_per_s on gabl_churn_128 (index writes); <1% on paper_fig02"),
    ("mesh.frontier_passes", "count",
     "jobs_per_s on gabl_churn_128 (index writes); <1% on paper_fig02"),
    ("mesh.descent_queries", "count",
     "jobs_per_s on gabl_churn_128 (index writes); <1% on paper_fig02"),
    ("mesh.first_fit_queries", "count",
     "jobs_per_s on gabl_churn_128 (index writes); <1% on paper_fig02; swf_backfill_64 probes"),
    ("alloc.probe_s", "s",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("alloc.probe_ns", "ns",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("alloc.probe_calls", "count",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("mesh.best_fit_queries", "count",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("sched.select_s", "s",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("sched.select_calls", "count",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("sched.passes", "count",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("sched.probes_per_pass", "ratio",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("sched.nominations", "count",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("sched.queue_ops_s", "s",
     "jobs_per_s, rep_ms_p90 on swf_backfill_64 (index reads); 0 on paper_fig02"),
    ("workload.load_s", "s",
     "setup_s on swf_backfill_64 (SWF parse)"),
    ("workload.reset_s", "s",
     "rep_ms_p50 on paper_fig02 (Paragon stream per replication), ~1%"),
    ("workload.next_job_s", "s",
     "rep_ms_p50 on paper_fig02, ~1%"),
    ("sink.on_job_s", "s",
     "little anywhere (<=1.5%, fleet_steal_4x64 most); peak_rss_mb first"),
    ("cluster.migrations", "count",
     "fleet_steal_4x64 only"),
    ("cluster.stale_errors", "count",
     "fleet_steal_4x64 only"),
    ("trace.mirror_s", "s",
     "nothing: the traced run's own cost"),
    ("trace.overhead_frac", "ratio",
     "nothing: the traced run's own cost"),
)
# Spans whose self times, with the residual, make up a traced replication.
SELF_TIMES = (
    "alloc.allocate_s", "alloc.release_s", "alloc.probe_s", "sched.select_s",
    "sched.queue_ops_s", "workload.reset_s", "workload.next_job_s",
    "sink.on_job_s", "core.begin_run_s", "trace.mirror_s", "core.residual_s",
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    # PROCSIM_* switches select engines and debug oracles; the benchmark
    # always measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("PROCSIM_")}


def build() -> None:
    def configure() -> bool:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *gen]
        return subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode == 0

    def compile_() -> bool:
        cmd = ["cmake", "--build", BUILD, "--parallel", "4"]
        return subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode == 0

    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and compile_():
        return
    # No build tree yet, or a stale one: configure from scratch.
    shutil.rmtree(BUILD, ignore_errors=True)
    if not (configure() and compile_()):
        sys.exit("perfbench: build failed")


def synth_swf(seed: int, index: int) -> str:
    """Synthetic SWF trace `index` of `seed`, generated once per checkout."""
    path = os.path.join(INPUTS, f"synth_{seed}_{index}_{SWF_JOBS}.swf")
    if not os.path.exists(path):
        os.makedirs(INPUTS, exist_ok=True)
        tmp = path + ".tmp"
        cmd = [sys.executable, os.path.join(ROOT, "scripts", "make_synth_swf.py"),
               "--jobs", str(SWF_JOBS), "--max-procs", "1024",
               "--seed", str(seed * SWF_TRACES + index),
               "--out", tmp]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: SWF synthesis failed")
        os.replace(tmp, path)
    return path


def measure(workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--mode", mode, "--ref-seed", str(REFERENCE_SEED)]
    if workload == "swf_backfill_64":
        for i in range(SWF_TRACES):
            cmd += ["--swf", synth_swf(seed, i)]
        # The reference items replay the first two traces of the reference seed.
        for i in range(2):
            cmd += ["--ref-swf", synth_swf(REFERENCE_SEED, i)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"perfbench: {workload} run failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_stats(stats: dict) -> dict:
    # Event counts are an implementation detail a faster kernel may change
    # without changing a single simulated statistic.
    return {k: v for k, v in stats.items() if k != "events"}


def check_reference(workload: str, checks: list) -> list:
    """Mismatches of the reference items against reference.json."""
    with open(REFERENCE, encoding="utf-8") as f:
        expected = json.load(f)[workload]["items"]
    errors = []
    for check in checks:
        item = str(check["item"])
        got = None if check["stats"] is None else reference_stats(check["stats"])
        if got != expected.get(item):
            errors.append(f"reference item {item}: got {got}, expected {expected.get(item)}")
    return errors


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def to_nominal(result: dict) -> tuple:
    """Replication and set-up times scaled to the nominal machine speed.

    cal_ms[i] is the calibration loop timed just before replication i (and
    the last one after the last replication); the median of the six around a
    replication gives the machine's speed while it ran. Each set-up is
    followed by its own calibration.
    """
    rep_ms, cal = result["rep_ms"], result["cal_ms"]
    reps = [ms * NOMINAL_CAL_MS / statistics.median(cal[max(0, i - 2):i + 4])
            for i, ms in enumerate(rep_ms)]
    setups = [s * NOMINAL_CAL_MS / c
              for s, c in zip(result["setup_s"], result["setup_cal_ms"])]
    return reps, setups


def end_to_end(rep_ms: list, setup_s: list, result: dict) -> dict:
    if not rep_ms:
        sys.exit("perfbench: no timed replication completed")
    return {
        "jobs_per_s": result["completed"] / (sum(rep_ms) / 1e3),
        "rep_ms_p50": statistics.median(rep_ms),
        "rep_ms_p90": percentile(rep_ms, 0.9),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def record_reference() -> None:
    build()
    out = {}
    for workload in WORKLOADS:
        result = measure(workload, REFERENCE_SEED, 1, "check")
        if result["failed"] or any(c["stats"] is None for c in result["checks"]):
            sys.exit(f"perfbench: {workload} reference items failed: {result['errors']}")
        out[workload] = {
            "seed": REFERENCE_SEED,
            "items": {str(c["item"]): reference_stats(c["stats"]) for c in result["checks"]},
        }
        log(f"recorded {len(result['checks'])} reference items of {workload}")
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args()
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    build()
    result = measure(args.workload, args.seed, args.seconds,
                     "trace" if args.trace else "time")
    ref_errors = check_reference(args.workload, result["checks"])
    errors = result["errors"] + ref_errors
    attempted = result["attempted"]
    failed = result["failed"] + len(ref_errors)

    if args.trace:
        layers = result["layers"]
        metrics = {name: (layers[name], unit) for name, unit, _ in PER_LAYER}
        moves = {name: target for name, _, target in PER_LAYER}
        wall = layers["trace.wall_s"]
        print(f"# {args.workload}: {len(result['traced_ms'])} traced replications, "
              f"mean {wall:.6f} s each; self time by span (residual = the rest):")
        for name in SELF_TIMES:
            share = layers[name] / wall if wall > 0 else 0.0
            print(f"#   {name:24s} {layers[name]:.6f} s  {100 * share:6.2f} %")
        print(f"#   {'sum':24s} {sum(layers[n] for n in SELF_TIMES):.6f} s  "
              f"(wall {wall:.6f} s)")
    else:
        reps, setups = to_nominal(result)
        values = end_to_end(reps, setups, result)
        raw = end_to_end(result["rep_ms"], result["setup_s"], result)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        print(f"# {args.workload}: {len(reps)} timed replications, {len(setups)} set-ups; "
              f"calibration loop median {statistics.median(result['cal_ms']):.3f} ms "
              f"(nominal {NOMINAL_CAL_MS} ms)")
        print("# unscaled host time: " + ", ".join(
            f"{name} {raw[name]:.6g}" for name in ("jobs_per_s", "rep_ms_p50",
                                                    "rep_ms_p90", "setup_s")))
    for name, (value, unit) in metrics.items():
        note = f"  # moves {moves[name]}" if args.trace else ""
        print(f"{name} {value:.9g} {unit}{note}")
    print(f"failed_frac {failed / attempted if attempted else 1.0:.9g} ratio")
    for e in errors:
        log(f"perfbench: FAILED: {e}")

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
