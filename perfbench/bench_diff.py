#!/usr/bin/env python3
"""Compare two sets of benchmark reports.

  python3 perfbench/bench_diff.py BASE NEW

BASE and NEW are report files or directories of them, as run.py leaves
them under <build>/reports/ (one JSON per workload, seed and trace mode).
Copy the directory aside between the two sets of runs.

Two verdicts per workload:

  * Counter ledger: every deterministic exec::MetricsRegistry counter of
    a run's ledger (one fixed unit of work, see README.md) must repeat
    exactly for the same workload and seed. Counters are deterministic,
    so any drift means the program's behaviour changed: a hard failure.
  * End-to-end metrics (untraced reports): the median over NEW's runs
    may be worse than BASE's median by at most the metric's bound in
    BENCHMARK.json. The table also prints BASE's spread (interquartile
    range over median) so a reader can tell a resolved change from noise.
    The check is one-sided; to show that two sets of the same code agree,
    run it both ways (BASE NEW, then NEW BASE).

Exit status 0 when both verdicts pass for every workload, 1 otherwise.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_reports(path):
    files = []
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
    else:
        files = [path]
    reports = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            doc = json.load(fh)
        # Smoke-sized and reference-writing runs do other work than a
        # timed run of the same seed: their ledgers and timings would not
        # compare.
        if doc.get("smoke") or doc.get("write_reference"):
            continue
        if "workload" in doc and "metrics" in doc:
            reports.append(doc)
    return reports


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base, new = load_reports(argv[1]), load_reports(argv[2])
    ok = True

    # ---- counter ledger: exact repeat per (workload, seed) ---------------
    ledgers = {}
    for side, reports in (("base", base), ("new", new)):
        for r in reports:
            ledgers.setdefault((r["workload"], r["seed"]), {}).setdefault(side, []).append(
                r.get("ledger", {}))
    for (workload, seed), sides in sorted(ledgers.items()):
        seen = sides.get("base", []) + sides.get("new", [])
        if len(seen) < 2:
            continue
        first = seen[0]
        for other in seen[1:]:
            drift = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
            if drift:
                ok = False
                for k in drift:
                    print(f"COUNTER DRIFT {workload} seed={seed} {k}: "
                          f"{first.get(k)} -> {other.get(k)}")
    print(f"counter ledger: {'identical' if ok else 'DRIFTED'} "
          f"across {sum(len(s.get('base', [])) + len(s.get('new', [])) for s in ledgers.values())} reports")

    # ---- end-to-end medians against the bounds ---------------------------
    workloads = sorted({r["workload"] for r in base + new})
    for workload in workloads:
        a = [r for r in base if r["workload"] == workload and not r["trace"]]
        b = [r for r in new if r["workload"] == workload and not r["trace"]]
        if not a or not b:
            continue
        print(f"\n{workload}: {len(a)} base runs, {len(b)} new runs")
        print(f"  {'metric':<14}{'base':>14}{'new':>14}{'change':>9}{'bound':>7}"
              f"{'base spread':>13}  verdict")
        for e in spec["end_to_end"]:
            name = e["name"]
            va = [r["metrics"][name] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if e["better"] == "lower" else -change
            verdict = "ok"
            if worse > e["bound"]:
                verdict = "REGRESSED"
                ok = False
            elif abs(change) <= spread(va):
                verdict = "ok (within noise)"
            print(f"  {name:<14}{ma:>14.6g}{mb:>14.6g}{100 * change:>8.1f}%"
                  f"{e['bound']:>7.2f}{spread(va):>13.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
