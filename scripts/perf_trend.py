#!/usr/bin/env python3
"""Perf-trend diff for the CI smoke-bench artifacts (ROADMAP "Perf
trajectory").

Compares every BENCH_smoke*.json in a baseline directory (the previous CI
run's artifact) against the same-named file in the current directory and
warns -- GitHub `::warning::` annotations, nonzero is never returned -- on
metrics that regressed by more than the threshold (default 10%).

Row matching: rows are keyed by the bench name plus every field that is
not a known metric (backend, d, n, mode, ...). Metrics where lower is
better are checked current-vs-baseline; rate metrics (higher is better)
are checked in the opposite direction. CPU metrics on shared runners are
noisy, so they use a slacker threshold (default 50%) -- the trend signal
there is order-of-magnitude, not percent.

Usage: perf_trend.py BASELINE_DIR CURRENT_DIR [--threshold 0.10]
"""

import argparse
import glob
import json
import os
import sys

# Lower is better. CPU-ish metrics get the slack threshold.
METRICS_LOWER = {
    "bytes_down", "bytes_up", "rounds", "frames",
    "mean", "median", "stddev",
    "riblt", "met", "iblt", "iblt_est", "pinsketch",
    "bytes_plain", "bytes_residual", "count_bytes_per_symbol",  # §6 wire cost
    # Adaptive-backend bench: total link traffic, bytes before the peer's
    # first useful frame, pacing-credit round trips, and the adaptive/best-
    # fixed cost ratio (all deterministic netsim numbers).
    "link_bytes", "first_contact_bytes", "credits", "ratio",
    # ...and its loopback section's in-memory wire bytes per session.
    "wire_bytes",
    # Chaos anti-entropy harness: staleness and per-item wire cost are
    # simulated-clock numbers, deterministic for a given seed/scale.
    "staleness_p50_s", "staleness_p99_s", "bytes_per_item",
}
METRICS_LOWER_NOISY = {
    "cpu_s", "hello_us", "churn_us", "build_s", "wall_s",
    # Serving bench observability gate: instrumentation attached-vs-
    # detached delta in percent (can be slightly negative; the bench
    # itself enforces the 2% ceiling, the trend just tracks drift).
    "obs_overhead_pct",
    "riblt_s", "pinsketch_s",
    # Adaptive-backend bench, loopback section: serving thread-CPU per
    # session, its byte-equivalent cost, the model pick's cost over the
    # cheapest backend's, and the measured per-operation constants.
    "serve_ns", "cost_bytes", "loopback_ratio",
    "gf64_mul_ns", "stream_symbol_ns", "iblt_item_ns", "met_item_ns",
    "p50_ms", "p99_ms",  # transport sync latency (loopback jitter is real)
    # Connection-sweep serving cost: syscalls per session is mostly
    # deterministic per backend, but batching boundaries shift with timing
    # (one epoll_wait or io_uring_enter can cover more or fewer events).
    # sqe_submits rides along so the fluctuating count stays out of the
    # row key (it would break baseline/current row matching otherwise).
    "syscalls_per_session", "sqe_submits",
    # Chaos harness counters that shift with fault-plan phasing: aborted
    # and reaped sessions, and the simulated time-to-convergence.
    "sessions_aborted", "sessions_reaped", "converge_s",
}
# Higher is better (rates). All of these are CPU-derived (sessions/sec,
# decode items/sec, shard speedups), so they all take the slack threshold
# on shared runners -- the trend signal is order-of-magnitude, not percent.
METRICS_HIGHER = {
    "sessions_per_s", "sessions_per_s_detached", "speedup", "riblt_d_per_s",
    "ingest_items_per_s", "ingest_speedup_4w",
    "rounds_converged",  # chaos harness: successful anti-entropy rounds
}
METRICS_NOISY = METRICS_LOWER_NOISY | METRICS_HIGHER

ALL_METRICS = METRICS_LOWER | METRICS_LOWER_NOISY | METRICS_HIGHER

# Registry-histogram quantile fields: JsonReport::hist emits `<key>_p50` /
# `<key>_p99` for any histogram a bench pulls off a registry snapshot, so
# new quantile columns are learned by suffix instead of by name. All are
# latency-flavored lower-is-better and CPU-derived, so they take the slack
# threshold like the other noisy metrics.
QUANTILE_SUFFIXES = ("_p50", "_p90", "_p99")


def is_quantile(name):
    return name.endswith(QUANTILE_SUFFIXES) and name not in ALL_METRICS


def is_metric(name):
    return name in ALL_METRICS or is_quantile(name)


def is_noisy(name):
    return name in METRICS_NOISY or is_quantile(name)


def row_key(row):
    return tuple(sorted(
        (k, v) for k, v in row.items() if not is_metric(k)
    ))


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("rows", []):
        rows[row_key(row)] = row
    return doc.get("bench", os.path.basename(path)), rows


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline_dir")
    ap.add_argument("current_dir")
    ap.add_argument("--threshold", type=float, default=0.10)
    ap.add_argument("--noisy-threshold", type=float, default=0.50)
    ap.add_argument("--pattern", default="BENCH_smoke*.json")
    args = ap.parse_args()

    baseline_files = {
        os.path.basename(p): p
        for p in glob.glob(os.path.join(args.baseline_dir, args.pattern))
    }
    current_files = sorted(
        glob.glob(os.path.join(args.current_dir, args.pattern)))

    if not baseline_files:
        print(f"perf-trend: no baseline files in {args.baseline_dir}; "
              "nothing to compare (first run?)")
        return 0
    if not current_files:
        print(f"::warning::perf-trend: no current bench JSON in "
              f"{args.current_dir}")
        return 0

    compared = regressions = 0
    for cur_path in current_files:
        name = os.path.basename(cur_path)
        if name not in baseline_files:
            print(f"perf-trend: {name} has no baseline counterpart; skipped")
            continue
        bench, base_rows = load(baseline_files[name])
        _, cur_rows = load(cur_path)
        for key, cur in cur_rows.items():
            base = base_rows.get(key)
            if base is None:
                continue
            for metric in sorted(cur):
                if not is_metric(metric) or metric not in base:
                    continue
                b, c = float(base[metric]), float(cur[metric])
                if b <= 0:
                    continue
                compared += 1
                threshold = (args.noisy_threshold
                             if is_noisy(metric)
                             else args.threshold)
                if metric in METRICS_HIGHER:
                    worse = c < b * (1.0 - threshold)
                    change = (b - c) / b
                else:
                    worse = c > b * (1.0 + threshold)
                    change = (c - b) / b
                if worse:
                    regressions += 1
                    print(f"::warning title=perf regression ({bench})::"
                          f"{metric} {fmt_key(key)}: {b:g} -> {c:g} "
                          f"({change:+.0%}, threshold {threshold:.0%})")

    print(f"perf-trend: compared {compared} metric points, "
          f"{regressions} regression warning(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
