#!/usr/bin/env python3
"""End-to-end benchmark: send -> verdict over library, pool and daemon.

One workload (what ``BENCHMARK.json`` runs)::

    python3 benchmarks/e2e/run.py --workload replay_unique --seed 1 \\
        --seconds 12 --trace 0

prints the workload's metrics by name and unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Without ``--workload`` every workload runs untraced and traced, each in
a fresh child process, and the two tables are printed; see README.md
for ``--self-check``, ``--holdout`` and ``--write-baseline``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hygiene  # noqa: E402

# Defaults only: scrubbed before anything of the program is imported.
SCRUBBED = hygiene.scrub_env()

import stages  # noqa: E402
import workloads  # noqa: E402
from spans import NoSpans, Spans, percentile  # noqa: E402
from workloads import Round, Samples  # noqa: E402

#: scratch space of a run, inside the checkout and ignored by git
WORK_DIR = os.path.join(ROOT, ".bench_e2e")

DEFAULT_SEED = 20190413
HOLDOUT_SEED = 77003
#: set-up is built this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 3


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        raw = json.load(handle)
    return {
        "run_seconds": raw["run_seconds"],
        "end_to_end": {m["name"]: m for m in raw["end_to_end"]},
        "per_layer": {m["name"]: m for m in raw["per_layer"]},
    }


def measure(w, rec, seconds: float) -> Samples:
    """Whole sessions until ``seconds`` have passed.

    Another session starts only while at least half of it still fits,
    so sessions are never cut short: ``replay_repeat``'s rounds get
    slower as its session ages and a truncated session would skew the
    mix of young and old rounds.
    """
    out = Samples()
    begin = time.perf_counter()
    deadline = begin + seconds
    index = 0
    while True:
        started = time.perf_counter()
        w.run_session(rec, index, w.session_rounds, out)
        index += w.session_rounds
        now = time.perf_counter()
        if now + (now - started) / 2 >= deadline:
            break
    out.wall_s = time.perf_counter() - begin
    return out


def end_to_end_metrics(w, samples: Samples, setup_s: float) -> Dict[str, float]:
    rounds = samples.rounds
    walls = samples.walls_ms
    return {
        "setup_s": setup_s,
        "events_per_s": median(r.events / (r.wall_ns / 1e9) for r in rounds),
        "slowdown_x": median(walls) / (median(samples.baseline_ns) / 1e6),
        "verdict_p50_ms": median(walls),
        "verdict_p90_ms": percentile(walls, 90),
        "peak_rss_mb": (hygiene.parent_maxrss_mb()
                        + w.probed.get("children_hwm_mb", 0.0)),
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def _slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of ``y`` against ``x``."""
    if len(points) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / var


def per_layer_metrics(w, rec, untraced: Samples, traced: Samples,
                      gen_s: float, server_cpu_share: float,
                      layers_out: dict) -> Dict[str, float]:
    out = {name: 0.0 for name in spec()["per_layer"]}
    rows = rec.caller_rows()
    walls = traced.walls_ms
    traces_per_round = median(r.traces for r in traced.rounds)
    events_per_round = median(r.events for r in traced.rounds)

    def row_ms(name: str) -> float:
        return rows.get(name, {}).get("self_ms_p50", 0.0)

    # caller side, from the spans
    out.update({
        "layers.unattributed_share": rows["round"]["share_p50"],
        "trace.overhead_share": (
            median(walls) / median(untraced.walls_ms) - 1.0),
        "client.verdict_p99_ms": percentile(walls, 99),
        "client.round_cv": statistics.pstdev(walls) / statistics.mean(walls),
        "gen_s": gen_s,
        "workers.submit_ns_per_trace": (
            row_ms("workers.submit") * 1e6 / traces_per_round),
        "workers.drain_wait_ms_p50": rec.p50_ms("workers.drain"),
        "workers.drain_growth_ns_per_prior_trace": _slope(w.idle_drains),
        "backends.spawn_ms_p50": rec.p50_ms("backends.spawn"),
        "backends.stop_ms_p50": rec.p50_ms("backends.stop"),
        "backends.worker_skew": w.probed.get("worker_skew", 1.0),
        "backends.recovery_events": w.probed.get("recovery_events", 0.0),
        "backends.workers_rss_mb": w.probed.get("children_hwm_mb", 0.0),
        "daemon.server_cpu_share": server_cpu_share,
    })
    out.update(w.own_metrics(
        rec, row_ms,
        Round(int(median(walls) * 1e6), events_per_round, traces_per_round, 0),
        median(untraced.walls_ms)))

    # the deployment's own counters
    hit_rate, wire_batches = w.counted_pass()
    out["verdict_cache.hit_rate"] = hit_rate

    # worker side: stage replay of one round's traces
    traces = w.stage_traces()
    stage = stages.replay_stages(traces, [w.oracle.of(t) for t in traces])
    out.update(stage)

    # Worker side per round.  In-process backends decode and encode
    # nothing; the counted pass says whether anything crossed a wire.
    # The daemon's server decodes PMTB frames and encodes the verdict.
    is_daemon = isinstance(w, workloads.DaemonSessions)
    if is_daemon:
        decode = stage["traceio.decode_pmtb_ns_per_event"]
    elif wire_batches:
        decode = stage["traceio.decode_tuple_ns_per_event"]
    else:
        decode = 0.0
    result_wire = (stage["traceio.result_roundtrip_ns_per_trace"] / 2
                   if decode else 0.0)
    checking = (hit_rate * stage["verdict_cache.hit_ns_per_event"]
                + (1 - hit_rate) * (
                    stage["engine.replay_ns_per_event"]
                    + stage["verdict_cache.miss_overhead_ns_per_event"]))
    worker_rows = {
        "traceio.decode": events_per_round * decode / 1e6,
        "engine+verdict_cache": events_per_round * checking / 1e6,
        "traceio.result_encode": traces_per_round * result_wire / 1e6,
    }
    worker_ms = sum(worker_rows.values())
    wall_ms = median(walls)
    wait_ms = row_ms("workers.drain") + row_ms("daemon.drain")
    if is_daemon:
        # A flush is the client's encode, then waiting for the ack.
        wait_ms += row_ms("daemon.flush") - (
            events_per_round * stage["traceio.encode_pmtb_ns_per_event"] / 1e6)
    # Which side sets the round: the caller's busy time, or the
    # workers' busy time divided among them.
    caller_busy_ms = wall_ms - wait_ms
    layers_out.update({
        "workload": w.name,
        "mode": w.mode,
        "rounds_traced": len(walls),
        "round_wall_ms_p50": wall_ms,
        "caller_rows": rows,
        "worker_rows_ms_per_round": worker_rows,
        "caller_busy_ms": caller_busy_ms,
        "worker_busy_ms": worker_ms,
        "round_bound_by": (
            "caller" if caller_busy_ms >= worker_ms / max(w.pool_workers, 1)
            else "workers"),
        "wire_batches_counted": wire_batches,
    })
    if w.name == "replay_repeat":
        # Serial, in-process, no wire: the stage rows stand in for the
        # submit row and must, with the drain, add up to the wall.
        if wire_batches:
            raise AssertionError("replay_repeat sent batches over a wire")
        layers_out["reconcile_share"] = (worker_ms + wait_ms) / wall_ms
    if w.name == "btree_live":
        # Serial under the GIL.  The worker thread checks while the
        # program runs, so its share is the stage-replay figure, not
        # the drain wait (which is only the tail not yet overlapped).
        program_ms = out["instr.program_ns_per_op"] * w.ops / 1e6
        emit_ms = out["instr.emit_ns_per_event"] * events_per_round / 1e6
        staged_ms = (
            program_ms + emit_ms + worker_ms + row_ms("instr.send_trace")
            + row_ms("backends.spawn") + row_ms("backends.stop"))
        layers_out["reconcile_share"] = staged_ms / wall_ms
        layers_out["instr.run_inflation_ms"] = (
            row_ms("instr.run") - program_ms - emit_ms)
    return out


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def resolved_config(w, args, pool_workers: int) -> dict:
    from repro.core.verdict_cache import resolve_cache_size

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    config = dict(w.resolved)
    config.update({
        "verdict_cache_size": resolve_cache_size(None, None),
        "pool_workers": pool_workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "env_scrubbed": SCRUBBED,
    })
    return config


class Outcome:
    """What one workload run measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.metrics: Dict[str, float] = {}
        self.layers: dict = {}
        self.spans: Optional[Spans] = None

    def count(self, samples: Samples) -> None:
        self.attempted += samples.attempted
        self.failed += samples.failed


def measure_workload(w, args, gen_s: float) -> Outcome:
    """Set-up, warm-up, the measured rounds and the metrics of them."""
    out = Outcome()
    traced = bool(args.trace)
    setups = []
    for repeat in range(1 if traced else SETUP_REPEATS):
        if repeat:
            w.teardown()
        started = time.perf_counter()
        w.setup()
        out.count(w.warm_up())
        setups.append(time.perf_counter() - started)

    if traced:
        untraced = measure(w, NoSpans(), args.seconds * 0.25)
        out.count(untraced)
        out.spans = rec = Spans()
        cpu_before = w.cpu_seconds()
        samples = measure(w, rec, args.seconds * 0.4)
        cpu_share = (w.cpu_seconds() - cpu_before) / samples.wall_s
    else:
        samples = measure(w, NoSpans(), args.seconds)
    out.count(samples)
    out.rounds = len(samples.rounds)
    # Children that live as long as the workload (the daemon) are read
    # here; pools that come and go were read in a probed round.
    w.probed["children_hwm_mb"] = max(
        w.probed.get("children_hwm_mb", 0.0), hygiene.children_hwm_mb())
    if traced:
        out.metrics = per_layer_metrics(
            w, rec, untraced, samples, gen_s, cpu_share, out.layers)
    else:
        out.metrics = end_to_end_metrics(w, samples, median(setups))
    return out


def run_workload(args) -> int:
    rundir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(rundir)
    os.chdir(rundir)
    gate = hygiene.LeakGate(rundir)
    placement = hygiene.place_on_cpus()
    pool_workers = max(1, (os.cpu_count() or 1) - 1)
    traced = bool(args.trace)
    units = spec()["per_layer" if traced else "end_to_end"]

    started = time.perf_counter()
    w = workloads.WORKLOADS[args.workload](
        random.Random(args.seed), pool_workers, placement["children"])
    gen_s = time.perf_counter() - started
    # The generated inputs stay out of the program's collections.
    gc.collect()
    gc.freeze()
    try:
        out = measure_workload(w, args, gen_s)
    finally:
        try:
            w.teardown()
        finally:
            strays = hygiene.stop_children()
        problems = gate.check(strays, w.daemon_exit, w.daemon_stderr)
        os.chdir(ROOT)
        hygiene.remove_rundir(rundir)
    metrics, layers = out.metrics, out.layers
    attempted, failed = out.attempted, out.failed
    if set(metrics) != set(units):
        raise AssertionError(
            f"metrics and BENCHMARK.json differ: {set(metrics) ^ set(units)}")

    config = resolved_config(w, args, pool_workers)
    config["cpu_placement"] = placement
    if traced:
        hit_rate = metrics["verdict_cache.hit_rate"]
        if w.hit_rate_between is not None:
            low, high = w.hit_rate_between
            if not low < hit_rate < high:
                problems.append(
                    f"cache hit rate {hit_rate:.3f} outside ({low}, {high})")
        layers["metrics"] = metrics
        layers["config"] = config
        os.makedirs(args.out, exist_ok=True)
        out.spans.write_chrome_trace(
            os.path.join(args.out, f"{w.name}.trace.json"), w.name)
        with open(os.path.join(args.out, f"{w.name}.layers.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(layers, handle, indent=2, sort_keys=True)

    print(f"workload {w.name}: {w.mode}")
    print(f"config: {json.dumps(config, sort_keys=True)}")
    print(f"  rounds {out.rounds}  traces attempted {attempted}  "
          f"failed {failed}  failed_share {failed / attempted:.6f}")
    for name, value in metrics.items():
        bound = units[name].get("bound")
        suffix = f"  (bound {bound:.0%})" if bound is not None else ""
        print(f"  {name:44s} {value:14.4f} {units[name]['unit']}{suffix}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]["unit"]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the whole suite, one child process per workload and run
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: int, trace: int,
              out: str) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", out,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["config"] = json.loads(next(
            line for line in lines if line.startswith("config: "))[8:])
    except (IndexError, ValueError, StopIteration):
        raise RuntimeError(
            f"{name}: no result\n{done.stdout}\n{done.stderr}") from None
    for line in lines[:-1]:
        if not line.startswith("config: "):
            print(line)
    result["exit"] = done.returncode
    return result


def run_set(seed: int, seconds: int, out: str, traced: bool) -> dict:
    """Every workload untraced, then (optionally) traced."""
    results: dict = {}
    for name in workloads.WORKLOADS:
        results[name] = {"end_to_end": run_child(name, seed, seconds, 0, out)}
        if traced:
            results[name]["per_layer"] = run_child(name, seed, seconds, 1, out)
    return results


def failures_of(results: dict) -> List[str]:
    return [
        f"{name}/{kind}: failed {run['failed']} of {run['attempted']}, "
        f"exit {run['exit']}"
        for name, runs in results.items() for kind, run in runs.items()
        if run["exit"] != 0 or run["failed"] or not run["correct"]
    ]


def print_table(results: dict, kind: str) -> None:
    names = list(results)
    print(f"\n{kind} metrics")
    print(f"{'metric':44s} {'unit':9s} {'bound':>6s} "
          + " ".join(f"{n[:15]:>15s}" for n in names))
    for metric, info in spec()[kind].items():
        bound = info.get("bound")
        cells = [
            f"{results[n][kind]['metrics'][metric]['value']:15.4f}"
            for n in names
        ]
        print(f"{metric:44s} {info['unit']:9s} "
              f"{f'{bound:.0%}' if bound is not None else '':>6s} "
              + " ".join(cells))
    print(f"{'failed_share':44s} {'ratio':9s} {'0':>6s} " + " ".join(
        f"{results[n][kind]['failed'] / results[n][kind]['attempted']:15.6f}"
        for n in names))


def self_check(first: dict, second: dict) -> List[str]:
    """End-to-end metrics of two back-to-back sets must agree within
    each metric's bound, whichever set is taken as the base."""
    problems = []
    for name in first:
        a = first[name]["end_to_end"]["metrics"]
        b = second[name]["end_to_end"]["metrics"]
        for metric, info in spec()["end_to_end"].items():
            x, y = a[metric]["value"], b[metric]["value"]
            apart = abs(x - y) / min(x, y)
            if apart > info["bound"]:
                problems.append(
                    f"{name}.{metric}: {x:.4f} vs {y:.4f} "
                    f"({apart:.1%} apart, bound {info['bound']:.0%})")
    return problems


def run_suite(args) -> int:
    out = os.path.abspath(args.out)
    seed = HOLDOUT_SEED if args.holdout else args.seed
    first = run_set(seed, args.seconds, out, traced=True)
    print_table(first, "end_to_end")
    print_table(first, "per_layer")
    problems = failures_of(first)
    if args.self_check:
        second = run_set(seed, args.seconds, out, traced=False)
        print_table(second, "end_to_end")
        problems += failures_of(second) + self_check(first, second)
    if args.write_baseline:
        sets = {str(seed): first}
        if not args.holdout:
            sets[str(HOLDOUT_SEED)] = run_set(
                HOLDOUT_SEED, args.seconds, os.path.join(out, "holdout"),
                traced=True)
            problems += failures_of(sets[str(HOLDOUT_SEED)])
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump({"seconds": args.seconds, "sets": sets}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"\nartefacts in {out}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(WORK_DIR, "out"),
                        help="directory for chrome traces and layers.json")
    parser.add_argument("--holdout", action="store_true",
                        help=f"run the suite on seed {HOLDOUT_SEED}")
    parser.add_argument("--self-check", action="store_true",
                        help="run the suite twice; fail if any end-to-end "
                             "metric differs by more than its bound")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write both seeds' results to PATH")
    args = parser.parse_args()
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
