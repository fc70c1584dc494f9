#!/usr/bin/env python3
"""Compare two sets of ribltbench result files against the benchmark's bounds.

    python3 bench/ribltbench/compare.py BASE_DIR NEW_DIR

Each directory holds result documents written by `ribltbench --out=FILE`
(one run per file, any number of workloads per file; run.py leaves one per
run in its build directory). For every workload and end-to-end metric the
table gives each side's median and quartiles, the change of the medians,
the share of seed-matched pairs the new side won, and a verdict:

  improved    the new side won at least 9/10 of the pairs and the medians
              differ by more than the base side's quartile spread
  unresolved  a side's quartile spread, as a share of its median, is wider
              than the metric's bound, so "no change" cannot be claimed
  regressed   the new median is worse than the base median by more than
              the bound
  no-change   none of the above

Bounds come from BENCHMARK.json at the repository root, plus the two
metrics it cannot carry (see EXTRA). Exits 1 when anything regressed.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Reported in each result's "info", outside BENCHMARK.json: failed_ratio is 0
# on a healthy run and ingest_p99_us exists on churn only, while every
# BENCHMARK.json metric must be nonzero on every workload.
EXTRA = [
    {"name": "failed_ratio", "unit": "ratio", "better": "lower", "bound": 0.0},
    {"name": "ingest_p99_us", "unit": "us", "better": "lower", "bound": 0.25},
]


def load(directory):
    """{(workload, metric): {seed: value}} plus per-workload calibration."""
    values = {}
    calib = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            doc = json.load(f)
        if doc.get("mode") != "e2e":
            continue
        for w in doc["workloads"]:
            calib.setdefault(w["name"], []).append(w["calib_ns_per_hash"])
            for group in ("metrics", "info"):
                for metric, m in w[group].items():
                    runs = values.setdefault((w["name"], metric), {})
                    key = doc["seed"]
                    while key in runs:  # repeated seed: keep both runs
                        key = (key, len(runs))
                    runs[key] = m["value"]
    return values, calib


def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(spec, base, new):
    lower = spec["better"] == "lower"
    b1, bm, b3 = summary(list(base.values()))
    n1, nm, n3 = summary(list(new.values()))
    common = sorted(set(base) & set(new), key=str)
    pairs = [(base[k], new[k]) for k in common] or list(
        zip(sorted(base.values()), sorted(new.values())))
    won = sum(1 for b, n in pairs if (n < b if lower else n > b))
    share = won / len(pairs)
    change = (nm - bm) / abs(bm) if bm else 0.0
    worse = change if lower else -change
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    if spec["bound"] == 0:  # failures: any new one is a regression
        worse_run = max(new.values()) > max(base.values())
        v = "regressed" if worse_run else "no-change"
    elif share >= 0.9 and worse < 0 and abs(nm - bm) > b3 - b1:
        v = "improved"
    elif spread > spec["bound"]:
        v = "unresolved"
    elif worse > spec["bound"]:
        v = "regressed"
    else:
        v = "no-change"
    return (b1, bm, b3), (n1, nm, n3), change, share, v


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"] + EXTRA
    base, base_calib = load(argv[1])
    new, new_calib = load(argv[2])
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    if not workloads:
        print("no workload appears in both directories", file=sys.stderr)
        return 2
    regressed = False
    print(f"{'workload':9} {'metric':26} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'won':>5}  verdict")
    for w in workloads:
        for spec in specs:
            key = (w, spec["name"])
            if key not in base or key not in new:
                continue
            b, n, change, share, v = verdict(spec, base[key], new[key])
            regressed = regressed or v == "regressed"
            print(f"{w:9} {spec['name']:26} "
                  f"{b[1]:12.5g} [{b[0]:9.5g}, {b[2]:9.5g}] "
                  f"{n[1]:12.5g} [{n[0]:9.5g}, {n[2]:9.5g}] "
                  f"{change * 100:+7.2f}% {share:5.2f}  {v}")
        print(f"{w:9} {'calib_ns_per_hash':26} "
              f"{statistics.median(base_calib[w]):12.5g} "
              f"{'':22} {statistics.median(new_calib[w]):12.5g}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
