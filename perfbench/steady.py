#!/usr/bin/env python3
"""Steadiness mode: run workloads several times and report the spread.

    python3 perfbench/steady.py --runs 10 --out set1.json [--workload W ...]
    python3 perfbench/steady.py --compare set1.json set2.json

The first form runs every workload of BENCHMARK.json (or the ones named)
--runs times, seeds 1..N, for BENCHMARK.json's run_seconds, and prints each
end-to-end metric's median, first and third quartile and the quartile
spread as a share of the median, against a third of the metric's bound.
--out saves the raw results. The second form checks that two saved sets
agree: each median of the second set may be worse than the first by at
most the metric's bound. Sets from different env blocks (host, compiler,
build type, sources) are never compared.

Exits 1 when a spread (setup_s excepted) exceeds the metric's bound, or when
a compared median drifts past its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit("steady: %s seed %d failed:\n%s" % (workload, seed, r.stderr[-2000:]))
    lines = [json.loads(l) for l in r.stdout.splitlines() if l.strip()]
    env = next(l["env"] for l in lines if "env" in l)
    return env, lines[-1]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(bench, results):
    """Prints the spread table; returns False if a spread exceeds its bound."""
    ok = True
    print("%-14s %-12s %12s %12s %12s %8s %8s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound/3"))
    for workload, runs in results.items():
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2
            flag = ""
            if spread > m["bound"] / 3:
                flag = " above bound/3"
            if spread > m["bound"] and m["name"] != "setup_s":
                flag = " ABOVE BOUND"
                ok = False
            print("%-14s %-12s %12.6g %12.6g %12.6g %8.4f %8.4f%s" %
                  (workload, m["name"], q2, q1, q3, spread, m["bound"] / 3, flag))
        failed = sum(r["result"]["failed"] for r in runs)
        print("%-14s %d runs, %d failed operations" % (workload, len(runs), failed))
        ok = ok and failed == 0
    return ok


def compare(bench, a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    if a["env"] != b["env"]:
        sys.exit("steady: the two sets come from different env blocks:\n  %s\n  %s"
                 % (a["env"], b["env"]))
    ok = True
    for workload in a["results"]:
        if workload not in b["results"]:
            continue
        for m in bench["end_to_end"]:
            med = [statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                     for r in s["results"][workload]) for s in (a, b)]
            worse = (med[1] - med[0]) / med[0]
            if m["better"] == "higher":
                worse = -worse
            flag = "" if worse <= m["bound"] else " WORSE THAN BOUND"
            ok = ok and not flag
            print("%-14s %-12s %12.6g -> %12.6g  %+7.2f%% (bound %.0f%%)%s" %
                  (workload, m["name"], med[0], med[1], 100 * worse, 100 * m["bound"], flag))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        return 0 if compare(bench, *args.compare) else 1

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {}
    env = None
    for w in workloads:
        results[w] = []
        for i in range(args.runs):
            seed = i + 1
            run_env, result = run_once(w, seed, seconds)
            if env is None:
                env = run_env
            elif run_env != env:
                sys.exit("steady: env block changed between runs: %s vs %s" % (env, run_env))
            results[w].append({"seed": seed, "result": result})
            print("%s seed %d: %s" % (w, seed, json.dumps(result["metrics"])), flush=True)
    ok = report(bench, results)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"env": env, "results": results}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
