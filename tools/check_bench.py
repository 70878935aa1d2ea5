#!/usr/bin/env python3
"""Perf-regression gate over the benches' --json output.

Compares one or more "asmcap-bench-v1" reports (written by bench_batch,
bench_sharded, bench_service, bench_live and bench_ingest via
src/util/bench_json.*) against the committed bench/baseline.json:

  * the workload parameters must match the baseline entry exactly (the
    gate only means something on the canonical workload);
  * the decision digest must match EXACTLY — decisions are deterministic
    and invariant in kernel tier, worker count, and compiler, so any
    digest drift is a correctness regression, not noise;
  * the headline speedup must stay within tolerance of the baseline
    (relative: speedup >= expected * (1 - tolerance)) — a timing floor
    that is SKIPPED when the reporting machine has fewer hardware
    threads than the baseline requires, mirroring the benches' own
    scarce-hardware carve-outs;
  * any metric bounds the baseline entry declares (its "metrics" object,
    name -> {"min": x, "max": y}) are enforced against the report's
    metrics — a bounded metric MISSING from the report is a failure
    (e.g. the pruned arm's prune_rate / pruned_digest_matches), while
    report metrics without baseline bounds pass through ungated.

Usage:
  tools/check_bench.py --baseline bench/baseline.json report.json [...]

Exits non-zero on the first hard failure after checking every report.
"""

import argparse
import json
import sys

SCHEMA = "asmcap-bench-v1"
BASELINE_SCHEMA = "asmcap-bench-baseline-v1"
KNOWN_TIERS = {"scalar", "avx2", "neon"}


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def check_report(report_path, baseline):
    with open(report_path) as f:
        report = json.load(f)

    errors = 0
    if report.get("schema") != SCHEMA:
        return fail(f"{report_path}: schema {report.get('schema')!r}, "
                    f"expected {SCHEMA!r}")

    bench = report.get("bench")
    entry = baseline["benches"].get(bench)
    if entry is None:
        return fail(f"{report_path}: no baseline entry for bench {bench!r}")

    tier = report.get("kernel_tier")
    if tier not in KNOWN_TIERS:
        errors += fail(f"{report_path}: unknown kernel_tier {tier!r}")

    # Workload must be the canonical one the baseline was recorded on.
    if report.get("workload") != entry["workload"]:
        errors += fail(
            f"{report_path}: workload {report.get('workload')} differs from "
            f"baseline {entry['workload']} — digests are only comparable on "
            f"the canonical workload")
    elif report.get("decision_digest") != entry["decision_digest"]:
        # Digest is exact: decisions are invariant in tier/workers/compiler.
        errors += fail(
            f"{report_path}: decision digest {report.get('decision_digest')} "
            f"!= baseline {entry['decision_digest']} (kernel_tier={tier}) — "
            f"decisions changed")
    else:
        print(f"OK: {bench}: digest {entry['decision_digest']} matches "
              f"(kernel_tier={tier})")

    # Metric bounds are structural gates (ratios of deterministic counts),
    # not timing: no hardware carve-out applies.
    metrics = report.get("metrics", {})
    for name, bounds in entry.get("metrics", {}).items():
        value = metrics.get(name)
        if value is None:
            errors += fail(f"{report_path}: metric {name!r} bounded by the "
                           f"baseline but missing from the report")
            continue
        low = bounds.get("min")
        high = bounds.get("max")
        if (low is not None and value < low) or \
           (high is not None and value > high):
            errors += fail(f"{report_path}: metric {name} = {value:.4f} "
                           f"outside baseline bounds [{low}, {high}]")
        else:
            print(f"OK: {bench}: metric {name} = {value:.4f} within "
                  f"[{low}, {high}]")

    gate = entry.get("speedup")
    if gate:
        threads = report.get("hardware_threads", 0)
        needed = gate.get("min_hardware_threads", 1)
        floor = gate["expected"] * (1.0 - gate.get("tolerance", 0.0))
        speedup = report.get("speedup", 0.0)
        if threads < needed:
            print(f"SKIP: {bench}: speedup floor {floor:.2f}x not enforced "
                  f"({threads} hardware threads < {needed})")
        elif speedup < floor:
            errors += fail(
                f"{report_path}: speedup {speedup:.2f}x below "
                f"{floor:.2f}x (= {gate['expected']} * "
                f"(1 - {gate.get('tolerance', 0.0)}))")
        else:
            print(f"OK: {bench}: speedup {report['speedup']:.2f}x >= "
                  f"{floor:.2f}x floor")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("reports", nargs="+")
    opts = parser.parse_args()

    with open(opts.baseline) as f:
        baseline = json.load(f)
    if baseline.get("schema") != BASELINE_SCHEMA:
        sys.exit(fail(f"{opts.baseline}: schema {baseline.get('schema')!r}, "
                      f"expected {BASELINE_SCHEMA!r}"))

    errors = 0
    for report_path in opts.reports:
        errors += check_report(report_path, baseline)
    if errors:
        sys.exit(1)
    print(f"bench gate OK: {len(opts.reports)} report(s) checked")


if __name__ == "__main__":
    main()
