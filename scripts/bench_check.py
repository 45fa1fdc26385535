#!/usr/bin/env python3
"""Perf-regression guard for scripts/bench.sh --check.

Compares freshly written bench summaries (BENCH_kernels.json,
BENCH_serve.json) against the committed baselines in bench/baselines/
and exits non-zero when a guarded metric regressed by more than the
tolerance (default 15%).

A fresh summary recorded at a different thread count than its baseline
is an error, not a comparison: the guarded ratios depend on the thread
count (pruned_vs_dense most of all), so such a pair says nothing about
the code. The same holds for the kernel ISA variant a summary records
(`isa`, chosen at run time from the host CPU): the train-step speedup
grows with the kernels' vector width.

Only *ratio* metrics are guarded — speedups of one configuration over
another measured in the same run (gemm-vs-naive, fast-vs-sim executor,
pruned-vs-dense). Absolute clips/s or GFLOP/s depend on the host CPU
and would make the check fail on any machine other than the one that
recorded the baseline; ratios cancel the machine out.

Usage: bench_check.py [--tolerance 0.15] [--baseline-dir bench/baselines]
                      [--fresh-dir .]
"""

import argparse
import json
import os
import sys

# (file, dotted path into the JSON, human label). All guarded metrics
# are higher-is-better ratios.
GUARDED = [
    ("BENCH_kernels.json", "train_step.speedup",
     "gemm vs naive train-step speedup"),
    ("BENCH_serve.json", "executors.fast_vs_sim",
     "fast executor vs cycle simulator"),
    ("BENCH_serve.json", "executors.pruned_vs_dense",
     "fast executor, 90% pruned vs dense"),
]


def lookup(doc, dotted):
    node = doc
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench-check: cannot read {path}: {e}", file=sys.stderr)
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--fresh-dir", default=".")
    args = ap.parse_args()

    checked = 0
    failures = []
    mismatched = set()  # files whose thread counts or ISA variants differ
    for fname, dotted, label in GUARDED:
        base_path = os.path.join(args.baseline_dir, fname)
        fresh_path = os.path.join(args.fresh_dir, fname)
        if not os.path.exists(base_path):
            print(f"bench-check: SKIP {label}: no baseline {base_path}")
            continue
        if not os.path.exists(fresh_path):
            print(f"bench-check: SKIP {label}: no fresh result {fresh_path}")
            continue
        base_doc, fresh_doc = load(base_path), load(fresh_path)
        if base_doc is None or fresh_doc is None:
            failures.append(f"{label}: unreadable JSON")
            continue
        base_threads = base_doc.get("threads")
        fresh_threads = fresh_doc.get("threads")
        if base_threads != fresh_threads:
            if fname not in mismatched:
                mismatched.add(fname)
                failures.append(
                    f"{fname}: fresh run used {fresh_threads} thread(s) but "
                    f"the baseline was recorded with {base_threads}; rerun "
                    f"at {base_threads} (scripts/bench.sh does) instead of "
                    "comparing")
            continue
        base_isa, fresh_isa = base_doc.get("isa"), fresh_doc.get("isa")
        if base_isa != fresh_isa:
            if fname not in mismatched:
                mismatched.add(fname)
                failures.append(
                    f"{fname}: fresh run used the {fresh_isa} kernels but "
                    f"the baseline was recorded with {base_isa}; compare on "
                    "a host that runs the same variant, or re-record the "
                    "baseline there")
            continue
        base = lookup(base_doc, dotted)
        fresh = lookup(fresh_doc, dotted)
        if base is None:
            print(f"bench-check: SKIP {label}: {dotted} absent from baseline "
                  "(older format)")
            continue
        if fresh is None:
            failures.append(f"{label}: {dotted} missing from fresh result")
            continue
        checked += 1
        if base <= 0:
            print(f"bench-check: SKIP {label}: non-positive baseline {base}")
            continue
        ratio = fresh / base
        status = "OK"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSED"
            failures.append(
                f"{label}: {fresh:.3f} vs baseline {base:.3f} "
                f"({(1.0 - ratio) * 100.0:.1f}% worse, "
                f"tolerance {args.tolerance * 100.0:.0f}%)")
        print(f"bench-check: {status:9s} {label}: fresh {fresh:.3f} / "
              f"baseline {base:.3f} = {ratio:.3f}")

    if failures:
        print("bench-check: FAILED", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"bench-check: passed ({checked} metrics within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
