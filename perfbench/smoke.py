#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at minimum size (--seconds 1), untraced
and traced, and checks that
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct = true and attempted >= 1;
  * the metric names are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, each with its declared unit and a finite,
    positive value;
  * an env block precedes the result;
  * every metric the benchmark specification names is emitted, under the name
    SPEC_METRICS maps it to (README.md explains each mapping);
and that run.py fails without a result in a directory holding only
BENCHMARK.json and perfbench/. Exits 1 on the first failed check.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metric names from the benchmark's specification -> (workload, where, name).
# `where` is "end_to_end", "per_layer" or "detail" (the detail line).
SPEC_METRICS = {
    "suite_s": ("paper_suite", "end_to_end", "cpu_s"),
    "suite wall time": ("paper_suite", "detail", "suite_wall_s"),
    "experiments.<scenario_id>_s": ("paper_suite", "detail", "scenario_s"),
    "inline_runs_per_s": ("gmw_circuits", "detail", "inline_runs_per_s"),
    "offline_runs_per_s": ("gmw_circuits", "detail", "offline_ideal_runs_per_s"),
    "sliced_runs_per_s": ("gmw_circuits", "detail", "sliced_runs_per_s"),
    "setup_s": ("gmw_circuits", "end_to_end", "setup_s"),
    "peak_rss_mb": ("daemon_mix", "end_to_end", "peak_rss_mb"),
    "p50_ms": ("daemon_mix", "end_to_end", "cpu_p50_ms"),
    "p99_ms": ("daemon_mix", "end_to_end", "cpu_p90_ms"),
    "p50_ms, p99_ms (wall, per ladder rate)": ("daemon_mix", "detail", "ladder"),
    "sustained_rps": ("daemon_mix", "detail", "sustained_rps"),
    "service.sustained_rps": ("daemon_mix", "per_layer", "service.sustained_rps"),
}


def fail(msg):
    sys.exit("smoke: FAIL: " + msg)


def run(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(bench, workload, trace):
    r = run(workload, trace)
    if r.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, r.returncode, r.stderr[-2000:]))
    lines = [json.loads(l) for l in r.stdout.splitlines() if l.strip()]
    result = lines[-1]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace=%d: correct=%s attempted=%s failed=%s" %
             (workload, trace, result["correct"], result["attempted"], result["failed"]))
    if not any("env" in l for l in lines[:-1]):
        fail("%s: no env block" % workload)
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    if set(emitted) != set(declared):
        fail("%s trace=%d: missing %s, undeclared %s" %
             (workload, trace, sorted(set(declared) - set(emitted)),
              sorted(set(emitted) - set(declared))))
    for name, m in emitted.items():
        if m.get("unit") != declared[name] or not isinstance(m.get("value"), (int, float)):
            fail("%s: metric %s is %s, declared unit %s" % (workload, name, m, declared[name]))
        if not math.isfinite(m["value"]) or m["value"] <= 0:
            fail("%s trace=%d: metric %s = %r is not finite and positive" %
                 (workload, trace, name, m["value"]))
    detail = next((l["detail"] for l in lines if "detail" in l), {})
    print("smoke: ok %s trace=%d (%d metrics, %d operations)" %
          (workload, trace, len(emitted), result["attempted"]))
    return emitted, detail


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = run("gmw_circuits", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if r.returncode == 0 or '"metrics"' in r.stdout:
        fail("run.py succeeded in a directory without the sources")
    print("smoke: ok run.py fails without the sources (exit %d)" % r.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seen = {}
    for w in bench["workloads"]:
        details = seen.setdefault((w["name"], "detail"), {})
        for trace in (0, 1):
            metrics, detail = check_run(bench, w["name"], trace)
            seen[(w["name"], "per_layer" if trace else "end_to_end")] = metrics
            details.update(detail)
    for spec_name, (workload, where, name) in SPEC_METRICS.items():
        if name not in seen[(workload, where)]:
            fail("%s (%s) not emitted as %s %s" % (spec_name, workload, where, name))
    print("smoke: ok every specified metric is emitted (%d mapped)" % len(SPEC_METRICS))
    check_bare_directory()
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
