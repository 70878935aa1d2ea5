#!/usr/bin/env python3
"""End-to-end benchmark of the asmcap_search CLI (see README.md here).

One command builds asmcap_search, asmcap_testgen and bench_layers in
Release (bench/e2e/CMakeLists.txt, build tree under .bench_build/),
generates seeded inputs with asmcap_testgen, runs the real CLI as a child
process, checks its output, and prints every metric by name and unit.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured on the CLI
with tracing off; with --trace 1 they are the per-layer ones, from
bench_layers, an in-process runner that times each layer from outside.

    python3 bench/e2e/run_benchmark.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--json OUT] [--self-test]
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "cmake"
SPEC = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = {w["name"]: w for w in SPEC["workloads"]}
METRICS = {m["name"]: m for m in SPEC["metrics"]}
E2E = [m["name"] for m in SPEC["metrics"] if m["kind"] == "e2e"]
LAYER = [m["name"] for m in SPEC["metrics"] if m["kind"] == "layer"]

DEFAULT_SECONDS = 20
MIN_TRIALS = 3
SELF_TEST_SCALE = 50
CHILD_TIMEOUT_S = 150
SETUP_MARK = b"asmcap_search: reference "
TSV_HEADER = "read\tstatus\tmatches\thits\tlatency_s\tenergy_j"
MODEL = ("model_latency_ns_per_read", "model_energy_nj_per_read")
# The pinned model means must match to this relative tolerance: it admits
# only last-digit differences in the CLI's printed floats.
MODEL_RTOL = 1e-9


class BenchError(Exception):
    """A run that cannot be counted: build, child process or output check."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def binary(name):
    return BUILD / (name if name == "bench_layers" else f"asmcap/{name}")


def build():
    """Configure once, then bring the three benchmark binaries up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no asmcap source tree at {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    make = ["cmake", "--build", str(BUILD), "-j", str(cpu_count()),
            "--target", "asmcap_search", "asmcap_testgen", "bench_layers"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_checked(cmd, what):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{what} timed out") from err
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-400:]}")
    return proc.stdout.decode()


def generate(workload, seed, scale, tag):
    """Writes the workload's seeded inputs; returns (reference, reads, n)."""
    gen = WORKLOADS[workload]["testgen"]
    tiles = max(2, gen["tiles"] // scale)
    reads = max(8, gen["reads"] // scale)
    folder = WORK / "inputs" / workload / tag
    folder.mkdir(parents=True, exist_ok=True)
    ref, fq = folder / "ref.fa", folder / "reads.fq"
    run_checked([str(binary("asmcap_testgen")), str(ref), str(fq),
                 "--width", str(SPEC["width"]),
                 "--records", str(gen["records"]), "--tiles", str(tiles),
                 "--reads", str(reads), "--seed", str(seed)],
                "asmcap_testgen")
    return ref, fq, reads


def flags(workload, ref, fq):
    """CLI flags of one workload; --workers never exceeds the cores."""
    spec = WORKLOADS[workload]
    workers = min(spec["workers"], cpu_count())
    return (["--reference", str(ref), "--reads", str(fq),
             "--width", str(SPEC["width"]), "--workers", str(workers)]
            + SPEC["common_flags"] + spec["flags"])


def cli_trial(args, out):
    """Runs one CLI child; returns (setup_s, total_s, peak_rss_mib).

    setup_s ends when the 'asmcap_search: reference' stderr line arrives;
    a run that never prints it, or exits non-zero, raises BenchError.
    """
    cmd = [str(binary("asmcap_search"))] + args + ["--output", str(out)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    setup = None
    tail = b""
    try:
        for line in proc.stderr:
            if setup is None and line.startswith(SETUP_MARK):
                setup = time.perf_counter() - start
            tail = (tail + line)[-400:]
        _, status, usage = os.wait4(proc.pid, 0)
        total = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stderr.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{cmd[0]} exited {proc.returncode}: "
                         f"{tail.decode(errors='replace')}")
    if setup is None:
        raise BenchError(f"{cmd[0]} printed no setup line "
                         f"({SETUP_MARK.decode().strip()!r})")
    return setup, total, usage.ru_maxrss / 1024.0


def digest(lines):
    """Digest of a row set, independent of row order."""
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_tsv(path):
    lines = path.read_text().splitlines()
    if not lines or lines[0] != TSV_HEADER:
        raise BenchError(f"{path}: missing TSV header")
    if len(lines) == 1:
        raise BenchError(f"{path}: no result rows")
    return [line.split("\t") for line in lines[1:]]


def origins(fq):
    """read id -> 'refR:OFFSET' from asmcap_testgen's FASTQ headers."""
    table = {}
    with fq.open() as handle:
        for n, line in enumerate(handle):
            if n % 4 == 0:
                name, origin = line[1:].split()
                table[name] = origin
    return table


def score(rows, fq, n_reads):
    """Output checks and model metrics of one CLI TSV."""
    truth = origins(fq)
    seen = {row[0] for row in rows}
    failed = sum(row[1] != "ok" for row in rows) + len(set(truth) - seen)
    found = sum(truth.get(row[0]) in row[3].split(",") for row in rows)
    return {
        "failed": failed,
        "digest": digest("\t".join(row[:4]) for row in rows),
        "origin_recall": found / n_reads,
        "model_latency_ns_per_read":
            sum(float(row[4]) for row in rows) / len(rows) * 1e9,
        "model_energy_nj_per_read":
            sum(float(row[5]) for row in rows) / len(rows) * 1e9,
    }


def bench_layers(args, rows, trace=None):
    cmd = [str(binary("bench_layers"))] + args + ["--rows", str(rows)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    out = run_checked(cmd, "bench_layers")
    record = json.loads(out.strip().splitlines()[-1])
    lines = [line for line in rows.read_text().splitlines() if line]
    record["digest"] = digest(lines)
    return record


def summary(values):
    """(median, q1, q3, n) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, len(values)


def until(budget, run_once, minimum):
    """Calls run_once until `budget` seconds are used (at least `minimum`
    times), never starting a call the last one says will not fit."""
    start = time.perf_counter()
    results = []
    last = 0.0
    while len(results) < minimum or (
            time.perf_counter() - start + last <= budget):
        began = time.perf_counter()
        results.append(run_once())
        last = time.perf_counter() - began
    return results


def warm_up(workload, scale, checks):
    """Untimed CLI run on the canonical-seed inputs: loads the binary into
    the page cache and checks the rows and the model means against the
    pinned ones, so every run, whatever its seed, catches a change in the
    program's decisions (and so in origin_recall) or in its cost model."""
    ref, fq, n_reads = generate(workload, SPEC["canonical_seed"], scale,
                                "canonical")
    out = ref.parent / "out.tsv"
    cli_trial(flags(workload, ref, fq), out)
    pinned = WORKLOADS[workload]["pinned"][
        "full" if scale == 1 else "self_test"]
    got = score(parse_tsv(out), fq, n_reads)
    checks.append((got["digest"] == pinned["digest"],
                   f"canonical-seed rows {got['digest']} != pinned "
                   f"{pinned['digest']}"))
    for name in MODEL:
        checks.append((math.isclose(got[name], pinned[name],
                                    rel_tol=MODEL_RTOL),
                       f"canonical-seed {name} {got[name]!r} != pinned "
                       f"{pinned[name]!r}"))


def measure(workload, seed, budget, trace, scale=1):
    """One benchmark run of one workload; returns its result record.

    budget is the measuring time in seconds; CLI trials repeat until it is
    used, at least MIN_TRIALS of them. With trace, half of it goes to CLI
    trials and half to bench_layers runs.
    """
    checks = []
    warm_up(workload, scale, checks)
    ref, fq, n_reads = generate(workload, seed, scale, "run")
    args = flags(workload, ref, fq)
    out = ref.parent / "out.tsv"
    hashes = []

    def one_cli():
        trial = cli_trial(args, out)
        hashes.append(file_hash(out))
        return trial

    timed = until(budget / 2 if trace else budget, one_cli, MIN_TRIALS)
    checks.append((len(set(hashes)) == 1,
                   "CLI output differs between trials of one seed"))
    scored = score(parse_tsv(out), fq, n_reads)
    values = {
        "setup_s": [t[0] for t in timed],
        "reads_per_s": [n_reads / (t[1] - t[0]) for t in timed],
        "total_s": [t[1] for t in timed],
        "peak_rss_mb": [t[2] for t in timed],
    }
    for name in ("origin_recall",) + MODEL:
        values[name] = [scored[name]]

    rows = ref.parent / "layer_rows.tsv"
    trace_path = WORK / "trace" / f"{workload}.trace.json"
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        records = until(budget / 2, lambda: bench_layers(
            args, rows, trace_path), 1)
    else:
        records = [bench_layers(args, rows)]
    for record in records:
        checks.append((record["digest"] == scored["digest"],
                       f"bench_layers rows {record['digest']} != CLI rows "
                       f"{scored['digest']}"))
    if trace:
        layer = {name: [r["metrics"][name] for r in records]
                 for name in records[0]["metrics"]}
        missing = set(LAYER) - set(layer) - {"trace.overhead_frac",
                                              "trace.coverage"}
        if missing:
            raise BenchError(f"bench_layers did not report {sorted(missing)}")
        e2e_rps = summary(values["reads_per_s"])[0]
        layer["trace.overhead_frac"] = [
            1 - n_reads / r["metrics"]["service.pump_s"] / e2e_rps
            for r in records]
        e2e_total = summary(values["total_s"])[0]
        layer["trace.coverage"] = [
            (r["metrics"]["ingest.s"] + r["metrics"]["service.pump_s"])
            / e2e_total for r in records]
        values = layer

    # A failed check makes every read of the run count as failed: its
    # timings describe a program that computed something else.
    errors = [message for ok, message in checks if not ok]
    attempted = n_reads * len(timed)
    failed = scored["failed"] * len(timed)
    if trace:
        attempted += n_reads * len(records)
        failed += sum(r["not_ok"] for r in records)
    if errors:
        failed = attempted
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "reads": n_reads,
        "trials": len(timed),
        "traced_runs": len(records) if trace else 0,
        "percentile_samples": records[-1]["percentile_samples"],
        "kernel_tier": records[-1]["kernel_tier"],
        "digest": scored["digest"],
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: summary(values[name])
                    for name in (LAYER if trace else E2E)},
        "trace_file": str(trace_path) if trace else None,
    }


def self_times(trace_path):
    """Per span name: (count, total ms, self ms). Self time is a span's
    duration minus the union of its children's intervals within it."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    children = {}
    for event in events:
        children.setdefault(event["args"]["parent"], []).append(event)
    table = {}
    for event in events:
        start, end = event["ts"], event["ts"] + event["dur"]
        covered, reach = 0.0, start
        spans = sorted((max(c["ts"], start), min(c["ts"] + c["dur"], end))
                       for c in children.get(event["args"]["id"], []))
        for lo, hi in spans:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        count, total, own = table.get(event["name"], (0, 0.0, 0.0))
        table[event["name"]] = (count + 1, total + event["dur"] / 1e3,
                                own + (event["dur"] - covered) / 1e3)
    return table


def report(result):
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"reads {result['reads']}  CLI trials {result['trials']}  "
          f"traced runs {result['traced_runs']}  nproc {cpu_count()}  "
          f"kernel {result['kernel_tier']}")
    for name, (median, q1, q3, n) in result["metrics"].items():
        unit = METRICS[name]["unit"]
        print(f"  {name:30s} {median:14.6g} {unit:10s} "
              f"[{q1:.6g}, {q3:.6g}] (n = {n})")
    if result["trace"]:
        print(f"  service percentiles over {result['percentile_samples']}"
              f" reads; trace: {result['trace_file']}")
        print(f"  {'span':24s} {'count':>7s} {'total ms':>11s} "
              f"{'self ms':>11s}")
        for name, (count, total, own) in sorted(
                self_times(result["trace_file"]).items()):
            print(f"  {name:24s} {count:7d} {total:11.2f} {own:11.2f}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")


def result_line(results):
    """The contract's last stdout line; metric names gain a workload
    prefix only when several workloads ran."""
    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for name, (median, _, _, _) in result["metrics"].items():
            key = f"{result['workload']}.{name}" if prefix else name
            metrics[key] = {"value": median, "unit": METRICS[name]["unit"]}
    return json.dumps({
        "correct": all(not r["errors"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.decode().strip() or "unknown"


def write_json(path, results):
    commit = git_commit()
    records = []
    for result in results:
        record = dict(result, nproc=cpu_count(), commit=commit)
        record["metrics"] = {
            name: {"median": m, "q1": q1, "q3": q3, "n": n,
                   "unit": METRICS[name]["unit"]}
            for name, (m, q1, q3, n) in result["metrics"].items()}
        records.append(record)
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def expect(condition, message, failures):
    log(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def self_test():
    """Each workload ~50x smaller with no measuring time (MIN_TRIALS CLI
    trials, one bench_layers run), traced and untraced, plus the harness's
    own failure paths."""
    failures = []
    seed = SPEC["canonical_seed"] + 1
    for name in WORKLOADS:
        for trace in (0, 1):
            result = measure(name, seed, 0, trace, SELF_TEST_SCALE)
            report(result)
            wanted = LAYER if trace else E2E
            expect(not result["errors"] and result["failed"] == 0
                   and list(result["metrics"]) == wanted,
                   f"{name} trace={trace}: rows agree with bench_layers "
                   f"and the pinned values, no failed reads, all "
                   f"{len(wanted)} metrics", failures)

    ref, fq, n_reads = generate("bulk_map", seed, SELF_TEST_SCALE, "run")
    out = ref.parent / "deadline.tsv"
    cli_trial(flags("bulk_map", ref, fq) + ["--deadline", "1e-6"], out)
    rows = parse_tsv(out)
    expired = sum(row[1] == "expired" for row in rows)
    failed = score(rows, fq, n_reads)["failed"]
    expect(failed > 0 and expired > 0 and failed >= expired,
           f"--deadline 1e-6: {expired} expired rows counted in "
           f"{failed}/{n_reads} failed", failures)

    pinned = WORKLOADS["bulk_map"]["pinned"]["self_test"]
    for key, corrupt in (("digest", "0" * 16),
                         ("model_energy_nj_per_read",
                          pinned["model_energy_nj_per_read"] * (1 + 1e-6))):
        kept = pinned[key]
        pinned[key] = corrupt
        try:
            result = measure("bulk_map", seed, 0, 0, SELF_TEST_SCALE)
        finally:
            pinned[key] = kept
        expect(bool(result["errors"])
               and result["failed"] == result["attempted"],
               f"a corrupted pinned {key} fails the run", failures)

    try:
        cli_trial(["--help"], out)
        missing_line = False
    except BenchError as err:
        missing_line = "no setup line" in str(err)
    expect(missing_line, "a run without the setup stderr line fails loudly",
           failures)

    contract = ROOT / "BENCHMARK.json"
    if contract.is_file():
        declared = json.loads(contract.read_text())
        pairs = [(m["name"], m["unit"], m["better"])
                 for m in declared["end_to_end"] + declared["per_layer"]]
        ours = [(m["name"], m["unit"], m["better"]) for m in SPEC["metrics"]]
        expect(pairs == ours and declared["workloads"] == [
                   {"name": w["name"], "why": w["why"]}
                   for w in SPEC["workloads"]],
               "BENCHMARK.json names the same workloads and metrics",
               failures)
    log("self-test: " + ("FAILED: " + "; ".join(failures) if failures
                         else "ok"))
    return 1 if failures else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=SPEC["canonical_seed"])
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload; CLI trials "
                             f"repeat until it is used, at least "
                             f"{MIN_TRIALS} (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--json", default=None,
                        help="write one record per workload to this path")
    parser.add_argument("--self-test", action="store_true")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        build()
        if args.self_test:
            return self_test()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            results.append(measure(name, args.seed, args.seconds,
                                   args.trace))
            report(results[-1])
    except BenchError as err:
        log(f"run_benchmark: {err}")
        return 1
    if args.json:
        write_json(args.json, results)
    print(result_line(results), flush=True)
    return 0 if all(not r["errors"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
