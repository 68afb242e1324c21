#!/usr/bin/env python3
"""End-to-end benchmark of the Hayat lifetime simulator.

Builds perfbench/hayat_perfbench from the repository's sources, runs one
workload in fresh processes, checks the outputs and prints every metric
by name and unit.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (untraced run).  With
--trace 1 they are the per-layer ones: an untraced run for half the time,
then a traced run of the same rounds.  See perfbench/README.md.

    python3 perfbench/run.py --workload sweep_8x8 --seed 1 --seconds 20 --trace 0
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "hayat_perfbench"

WORKLOADS = ("sweep_8x8", "sweep_16x16", "serve_jobs")
DEFAULT_SEED = 1
# Hash of round 0's canonical result rows at DEFAULT_SEED.  Any change to
# a simulated statistic changes it.
GOLDEN_ROUND0 = {
    "sweep_8x8": "38114ed4f786f18e",
    "sweep_16x16": "511ee19c42142056",
    "serve_jobs": "bf615deae6ce6305",
}
SETUP_PROCESSES = 10    # fresh set-up processes besides the run's own
HAYAT_BUDGET_MS = 1.6   # Section VI: per placement decision
DEADLINE_S = 170.0      # whole invocation, build excluded


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no simulator sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "hayat_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def child_env():
    # The simulator reads HAYAT_* knobs (dispatch, workers, caches, memo
    # and telemetry switches); the benchmark fixes all of them itself.
    return {k: v for k, v in os.environ.items() if not k.startswith("HAYAT_")}


def invoke(args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        die("out of time")
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=left)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"hayat_perfbench {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def pct(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    if not values:
        return 0.0
    s = sorted(values)
    k = (len(s) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def spread(values):
    """Median with its first and third quartile."""
    return pct(values, 0.5), pct(values, 0.25), pct(values, 0.75)


class Report:
    """Collects metrics in BENCHMARK.json order and prints them."""

    def __init__(self):
        self.metrics = {}
        self.rows = []

    def add(self, name, value, unit, note=""):
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.rows.append((name, float(value), unit, note))

    def note(self, name, value, unit, note=""):
        self.rows.append((name, float(value), unit, note))

    def print(self, title):
        print(title)
        for name, value, unit, note in self.rows:
            print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")


def check_hashes(workload, seed, run, traced=None):
    """Failures from the round hashes: the golden hash of round 0 at the
    default seed, and traced against untraced rows round by round."""
    per_round = run["attempted"] / max(1, len(run["round_hash"]))
    failed, why = 0, []
    golden = GOLDEN_ROUND0.get(workload)
    if seed == DEFAULT_SEED and golden and run["round_hash"][0] != golden:
        failed += per_round
        why.append(f"round 0 hash {run['round_hash'][0]} != golden {golden}")
    if traced is not None:
        for i, (a, b) in enumerate(zip(traced["round_hash"],
                                       run["round_hash"])):
            if a != b:
                failed += per_round
                why.append(f"round {i}: traced hash {a} != untraced {b}")
    return int(round(failed)), why


def end_to_end(workload, run, setup_samples, rep):
    """Medians over rounds, so a transient stall on a shared host moves
    one round, not the figure.  Every round has the same task count."""
    walls = run["round_wall_s"]
    rounds = len(walls)
    tasks = run["tasks"] / rounds
    wall = statistics.median(walls)
    n = f"median of n={rounds} rounds"
    rep.add("wall_s", wall, "s", f"{n}, {tasks:.0f} tasks each")
    rep.add("tasks_per_s", tasks / wall, "1/s", n)
    rep.add("cpu_per_task_s", statistics.median(run["round_cpu_s"]) / tasks,
            "s", f"{n}, {run['threads']} threads")
    rep.add("setup_s", statistics.median(setup_samples), "s",
            f"median of n={len(setup_samples)} fresh processes")
    rep.add("peak_rss_mb", run["peak_rss_mb"], "MB",
            "set-up and the first 4 rounds")
    if workload == "serve_jobs":
        per_round = run["jobs"] // rounds

        def by_round(key, q):
            xs = run[key]
            return statistics.median(
                pct(xs[i * per_round:(i + 1) * per_round], q)
                for i in range(rounds))

        n = f"median over n={rounds} rounds of {per_round} jobs"
        rep.add("jobs_per_s", per_round / wall, "1/s", n)
        rep.add("job_p50_s", by_round("job_s", 0.5), "s", n)
        rep.note("job_p90_s", by_round("job_s", 0.9), "s", n)
        rep.add("first_row_p50_s", by_round("first_row_s", 0.5), "s", n)
    else:
        # A sweep is one job: one ExperimentEngine::run, whose rows all
        # arrive with the returned table.
        rep.add("jobs_per_s", 1 / wall, "1/s", n)
        rep.add("job_p50_s", wall, "s", n)
        rep.note("job_p90_s", pct(walls, 0.9), "s", f"n={rounds} rounds")
        rep.add("first_row_p50_s", wall, "s", n)


def per_layer(workload, ref, tr, rep):
    c = tr["counters"]
    layers = tr["layers"]
    samples = tr["samples"]
    rounds = len(tr["round_wall_s"])

    def count(name):
        return c.get(name, 0.0)

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses > 0 else 0.0

    def share(key):
        vals = [p / r for p, r in zip(layers[key], layers["lifetime_run_ms"])
                if r > 0]
        med, q1, q3 = spread(vals)
        return med, f"median [{q1:.4f}, {q3:.4f}] over n={len(vals)} rounds"

    def p(name, key, q, unit="ms"):
        vals = samples[key]
        rep.add(name, pct(vals, q), unit, f"n={len(vals)}")

    create = tr["system_create_ms"]
    rep.add("system.create_ms_p50", pct(create, 0.5), "ms",
            f"n={len(create)} chip indices")
    rep.add("system.create_ms_max", max(create) if create else 0.0, "ms",
            f"n={len(create)} chip indices")

    med, note = share("window_ms")
    rep.add("epoch.window_share", med, "ratio", note)
    p("epoch.window_ms_p50", "window_ms", 0.5)
    rep.add("epoch.windows", count("hayat_epoch_windows_total"), "count")
    hits = count("hayat_transient_cache_hits")
    misses = count("hayat_transient_cache_misses")
    rep.add("epoch.memo_hits", hits, "count")
    rep.add("epoch.memo_misses", misses, "count")
    rep.add("epoch.memo_hit_ratio", ratio(hits, misses), "ratio")
    rep.add("epoch.steps_skipped", count("hayat_epoch_steps_skipped"), "count")
    rep.add("thermal.lu_factor_ms", sum(layers["lu_factor_ms"]), "ms")
    hits = count("hayat_thermal_lu_shared_hits_total")
    misses = count("hayat_thermal_lu_shared_misses_total")
    rep.add("thermal.lu_shared_hits", hits, "count")
    rep.add("thermal.lu_shared_misses", misses, "count")
    rep.add("thermal.lu_shared_hit_ratio", ratio(hits, misses), "ratio")

    med, note = share("policy_ms")
    rep.add("policy.share", med, "ratio", note)
    hayat = samples["hayat_ms"]
    p("policy.hayat.decision_ms_p50", "hayat_ms", 0.5)
    p("policy.hayat.decision_ms_p99", "hayat_ms", 0.99)
    over = sum(1 for v in hayat if v > HAYAT_BUDGET_MS)
    rep.add("policy.hayat.over_budget_frac", over / len(hayat) if hayat else 0.0,
            "ratio", f"{over} of n={len(hayat)} decisions > {HAYAT_BUDGET_MS} ms")
    rep.add("policy.hayat.decisions", len(hayat), "count")
    p("policy.vaa.decision_ms_p50", "vaa_ms", 0.5)

    med, note = share("aging_ms")
    rep.add("aging.share", med, "ratio", note)
    p("aging.advance_ms_p50", "aging_ms", 0.5)
    med, note = share("failure_ms")
    rep.add("failure.share", med, "ratio", note)

    threads = tr["threads"]
    if workload == "serve_jobs":
        busy = [r / (threads * w * 1e3) for r, w in
                zip(layers["lifetime_run_ms"], tr["round_wall_s"]) if w > 0]
    else:
        busy = [r / (threads * e) for r, e in
                zip(layers["lifetime_run_ms"], layers["engine_run_ms"]) if e > 0]
    med, q1, q3 = spread(busy)
    rep.add("engine.busy_ratio", med, "ratio",
            f"median [{q1:.4f}, {q3:.4f}] over n={len(busy)} rounds")
    p("lifetime.task_ms_p50", "task_ms", 0.5)
    p("lifetime.task_ms_p90", "task_ms", 0.9)
    rep.add("lifetime.tasks", len(samples["task_ms"]), "count")
    rep.add("cache.result_hits", count("hayat_result_cache_hits_total"), "count")
    rep.add("cache.result_misses", count("hayat_result_cache_misses_total"),
            "count")

    m = tr.get("serve_metrics", {})
    if workload == "serve_jobs":
        rep.add("serve.post_ms_p50", pct(tr["post_ms"], 0.5), "ms",
                f"n={len(tr['post_ms'])} jobs")
        rep.add("serve.stream_ms_p50", pct(tr["stream_ms"], 0.5), "ms",
                f"n={len(tr['stream_ms'])} jobs")
    else:
        rep.add("serve.post_ms_p50", 0.0, "ms", "n/a: no server")
        rep.add("serve.stream_ms_p50", 0.0, "ms", "n/a: no server")
    for name, key in (("serve.tasks_executed", "hayat_serve_tasks_executed_total"),
                      ("serve.shared_tasks", "hayat_serve_shared_tasks_total"),
                      ("serve.table_cache_hits",
                       "hayat_serve_table_cache_hits_total"),
                      ("serve.refused", "hayat_serve_jobs_rejected_total")):
        rep.add(name, m.get(key, 0.0), "count")

    tasks0 = ref["tasks_round0"]
    rep.add("dtm.events_per_task",
            ref["dtm_events_round0"] / tasks0 if tasks0 else 0.0, "count",
            f"round 0, n={tasks0} tasks")
    rep.add("telemetry.overhead",
            statistics.median(tr["round_wall_s"]) /
            statistics.median(ref["round_wall_s"]) - 1.0, "ratio",
            f"traced vs untraced median round, n={rounds} rounds each")
    rep.add("trace.rounds", rounds, "count")

    spans = sum(layers["epoch_spans"])
    epochs = count("hayat_lifetime_epochs_total")
    if spans != epochs:
        print(f"perfbench: {spans} lifetime.epoch spans for {epochs} epochs; "
              "the flight recorder dropped spans", file=sys.stderr)

    return hayat


def print_histogram(decisions_ms):
    """Hayat's per-decision latency against Section VI's 1.6 ms budget."""
    edges = [0.4, 0.8, 1.2, HAYAT_BUDGET_MS, 3.2, 6.4, 12.8, 25.6, math.inf]
    n_all = len(decisions_ms)
    print(f"Hayat decision latency, n={n_all} decisions, "
          f"budget {HAYAT_BUDGET_MS} ms:")
    lo = 0.0
    for hi in edges:
        n = sum(1 for v in decisions_ms if lo < v <= hi)
        bar = "#" * (round(50 * n / n_all) if n_all else 0)
        print(f"  ({lo:5.1f}, {hi:5.1f}] ms {n:7d} {bar}")
        lo = hi


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    deadline = time.monotonic() + DEADLINE_S
    workdir = BUILD_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        rep = Report()
        if args.trace == 0:
            setups = [invoke(["setup"] + common, deadline)["setup_s"]
                      for _ in range(SETUP_PROCESSES)]
            run = invoke(["run"] + common + [
                "--seconds", str(args.seconds),
                "--workdir", str(workdir / "run")], deadline)
            setups.append(run["setup_s"])
            end_to_end(args.workload, run, setups, rep)
            failed, why = check_hashes(args.workload, args.seed, run)
            runs = [run]
        else:
            ref = invoke(["run"] + common + [
                "--seconds", str(args.seconds / 2),
                "--workdir", str(workdir / "ref")], deadline)
            tr = invoke(["run"] + common + [
                "--rounds", str(len(ref["round_wall_s"])), "--traced",
                "--workdir", str(workdir / "traced")], deadline)
            decisions = per_layer(args.workload, ref, tr, rep)
            failed, why = check_hashes(args.workload, args.seed, ref, tr)
            runs = [ref, tr]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed += sum(int(r["failed"]) for r in runs)
    failed = min(failed, attempted)
    for r in runs:
        why += r["failures"]
    for line in why:
        print(f"perfbench: FAILED: {line}", file=sys.stderr)
    rep.note("failed_frac", failed / attempted, "ratio",
             f"{failed} of {attempted} attempted")
    rep.print(f"{args.workload} seed={args.seed} trace={args.trace}")
    if args.trace == 1:
        print_histogram(decisions)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": rep.metrics}))


if __name__ == "__main__":
    main()
