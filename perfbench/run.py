#!/usr/bin/env python3
"""Repository benchmark: build the harness, run one workload, print the result.

Usage (from the repository root):

  python3 perfbench/run.py --workload design_spice --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-check
  python3 perfbench/run.py --write-reference design_spice|population_mc

A run builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
harness binary for one workload, checks its outputs, and prints a
human-readable summary followed by one JSON line:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A traced run also dumps one trace window
and validates it with scripts/check_trace.py (zero dropped events). The
full report, with the host block, the counter ledger and the span
roll-up, is kept under <build>/reports/ for bench_diff.py.

Exit status: 0 when every output check passed; 1 when one failed (the
result line says correct=false); 2 or more, with no result line, when
the benchmark could not run at all.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design_spice", "population_mc", "telemetry_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Population seeds with committed reference summaries; any other seed is
# checked against a serial replay instead.
REFERENCE_SEEDS = range(1, 33)

# Span names each workload's dumped trace window must contain.
TRACE_REQUIRE = {
    "design_spice": ["ring.sweep", "spice.transient.lockstep", "spice.newton.refactor",
                     "spice.newton.reuse", "exec.cache.get", "exec.pool.task"],
    "population_mc": ["exec.parallel_for", "exec.pool.task", "exec.checkpoint.flush"],
    "telemetry_mix": ["service.request", "service.job", "sensor.scan", "dtm.fleet.run"],
}

# What the generic end-to-end names mean on each workload, for the
# human-readable summary.
E2E_ALIASES = {
    "design_spice": {"work_per_s": "points_per_s", "op_p50_ms": "sweep_p50_ms",
                     "op_p90_ms": "sweep_p90_ms"},
    "population_mc": {"work_per_s": "dice_per_s", "op_p50_ms": "shard_p50_ms",
                      "op_p90_ms": "shard_p90_ms"},
    "telemetry_mix": {"work_per_s": "jobs_per_s", "op_p50_ms": "job_p50_ms",
                      "op_p90_ms": "job_p90_ms"},
}


def die(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}", 2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to the benchmark", 2)
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target", "stsense_perfbench"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            die(f"build failed: {exc}", 3)
        if proc.returncode != 0:
            die(f"build failed: {' '.join(cmd)}", 3)
    return os.path.join(bdir, "stsense_perfbench")


def run_harness(binary, workload, seed, seconds, trace, extra=(), reports_dir="reports"):
    """Runs one workload; returns (report dict, exit code, dump path).

    Timed runs keep their report under <build>/reports/, the directory
    bench_diff.py reads; self-check and reference runs pass their own
    directory so they never replace a timed run's report."""
    bdir = build_dir()
    reports = os.path.join(bdir, reports_dir)
    scratch = os.path.join(bdir, "scratch")
    os.makedirs(reports, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    report = os.path.join(reports, tag + ".json")
    dump = os.path.join(scratch, tag + ".trace.json")
    for path in (report, dump):
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--report", report, "--scratch", scratch,
           "--reference", os.path.join(HERE, "reference", workload + ".json")]
    if trace:
        cmd += ["--trace-dump", dump]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    if proc.returncode not in (0, 1) or not os.path.isfile(report):
        die(f"{workload} exited with status {proc.returncode}", 5)
    with open(report, encoding="utf-8") as fh:
        return json.load(fh), proc.returncode, dump


def check_trace(workload, dump):
    """Validates the dumped trace window; returns an error string or None."""
    script = os.path.join(ROOT, "scripts", "check_trace.py")
    if not os.path.isfile(dump):
        return "no trace window was dumped"
    cmd = [sys.executable, script, dump]
    for name in TRACE_REQUIRE[workload]:
        cmd += ["--require", name]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    finally:
        os.remove(dump)
    return None if proc.returncode == 0 else "check_trace.py rejected the trace window"


def summary_lines(workload, report, trace):
    """Per-workload names of the end-to-end metrics, for people reading the log."""
    m = report["metrics"]
    aliases = E2E_ALIASES[workload]
    lines = [f"perfbench {workload} seed={report['seed']} trace={int(trace)}",
             f"  host: {json.dumps(report['host'], sort_keys=True)}"]
    for name, unit in (("setup_s", "s"), ("work_per_s", "1/s"), ("op_p50_ms", "ms"),
                       ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")):
        lines.append(f"  {aliases.get(name, name):<16} {m[name]:>14.6g} {unit}")
    if "polls_summary" in report:
        polls = report["polls_summary"]
        lines.append(f"  {'poll_p50_us':<16} {polls['p50_us']:>14.6g} us")
        lines.append(f"  {'poll_p99_us':<16} {polls['p99_us']:>14.6g} us "
                     f"({polls['rate_per_s']:g}/s open loop, generator lateness "
                     f"p99 {polls['lateness_p99_us']:.0f} us)")
    ratio = report["failed"] / max(1, report["attempted"])
    lines.append(f"  {'failed_ratio':<16} {ratio:>14.6g} "
                 f"({report['failed']}/{report['attempted']})")
    return lines


def measure(spec, workload, seed, seconds, trace, extra=(), reports_dir="reports"):
    """One benchmark run; returns (result dict, report)."""
    binary = build()
    report, _, dump = run_harness(binary, workload, seed, seconds, trace, extra, reports_dir)
    failures = list(report.get("failures", []))
    attempted = int(report["attempted"])
    failed = int(report["failed"])
    if trace:
        attempted += 1
        err = check_trace(workload, dump)
        if err:
            failed += 1
            failures.append(err)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [e["name"] for e in entries if e["name"] not in report["metrics"]]
    if missing:
        die(f"{workload} report lacks metrics: {', '.join(missing)}", 4)
    metrics = {e["name"]: {"value": report["metrics"][e["name"]], "unit": e["unit"]}
               for e in entries}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for line in summary_lines(workload, report, trace):
        print(line)
    for why in failures:
        print(f"  FAILED: {why}")
    return result, report


def self_check(spec):
    """Smoke-sized run of every workload, traced and untraced: the emitted
    metric names must be exactly BENCHMARK.json's."""
    declared = [w["name"] for w in spec["workloads"]]
    ok = sorted(declared) == sorted(WORKLOADS)
    if not ok:
        print(f"self-check: BENCHMARK.json workloads {declared} != {list(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (False, True):
            _, report = measure(spec, workload, 1, 1, trace, ["--smoke", "--setups", "1"],
                                "self-check-reports")
            e2e = {e["name"] for e in spec["end_to_end"]}
            want = {e["name"] for e in spec["per_layer"]} if trace else e2e
            emitted = set(report["metrics"]) - (e2e if trace else set())
            verdict = "OK" if emitted == want and report["failed"] == 0 else "MISMATCH"
            if verdict != "OK":
                ok = False
                print(f"  missing: {sorted(want - emitted)} extra: {sorted(emitted - want)} "
                      f"failures: {report.get('failures')}")
            print(f"self-check {workload} trace={int(trace)}: {verdict}")
    return 0 if ok else 1


def write_reference(workload):
    """Regenerates perfbench/reference/<workload>.json from this build."""
    binary = build()
    path = os.path.join(HERE, "reference", workload + ".json")
    extra = ["--write-reference", "--setups", "1"]
    reports_dir = "reference-reports"
    if workload == "design_spice":
        report, _, _ = run_harness(binary, workload, 1, 1, False, extra, reports_dir)
        doc = report["reference"]
    elif workload == "population_mc":
        doc = {"seeds": {}}
        for seed in REFERENCE_SEEDS:
            report, _, _ = run_harness(binary, workload, seed, 1, False, extra, reports_dir)
            doc["dice"] = report["dice_per_pass"]
            doc["seeds"][str(seed)] = report["reference"]
    else:
        die(f"{workload} has no committed reference", 2)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-reference", choices=("design_spice", "population_mc"))
    args = parser.parse_args()

    spec = load_spec()
    if args.self_check:
        return self_check(spec)
    if args.write_reference:
        return write_reference(args.write_reference)
    if args.workload is None:
        die("--workload is required", 2)
    if args.seed < 0:
        die("--seed must be non-negative", 2)
    t0 = time.monotonic()
    result, _ = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"  run wall {time.monotonic() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
