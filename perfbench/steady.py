#!/usr/bin/env python3
"""Run every workload once per seed and report each end-to-end metric's spread.

    python3 perfbench/steady.py --seeds 1-10 --out runs2.json [--against runs1.json]

Run from the repository root. Each run goes through perfbench/run.py with
BENCHMARK.json's run_seconds, one at a time. The output file keeps every
run's metrics and info line. The table shows each metric's spread: the
distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, next to the
metric's bound. A spread above its bound fails, setup_s included. With
--against, a median that is worse than the earlier batch's by more than
the bound fails too. --report re-reads an output file instead of running.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNGATED = ("cpu_trials_per_s", "wall_trials_per_s", "host_speed", "setup_cpu_s", "setup_wall_s",
           "invalid_frac", "control_p50_us", "job_p50_s", "job_tail_s", "control_tail_us")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-2])["perfbench_info"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    ap.add_argument("--out", help="JSON file for the per-run values")
    ap.add_argument("--report", help="report on this earlier output file; run nothing")
    ap.add_argument("--against", help="an earlier output file to compare medians with")
    args = ap.parse_args()
    if not (args.out or args.report):
        ap.error("--out or --report is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.report:
        with open(args.report) as f:
            runs = json.load(f)
        workloads = [w for w in args.workloads or runs if w in runs]
    else:
        workloads = args.workloads or [w["name"] for w in bench["workloads"]]
        runs = {w: {} for w in workloads}
        for w in workloads:
            for seed in parse_seeds(args.seeds):
                info, result = run_once(bench, w, seed)
                runs[w][str(seed)] = {"info": info, "result": result}
                print("%s seed %d: correct=%s" % (w, seed, result["correct"]), file=sys.stderr)
                with open(args.out, "w") as f:
                    json.dump(runs, f, indent=1, sort_keys=True)
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    for w in workloads:
        print("%s" % w)
        results = [r["result"] for r in runs[w].values()]
        ok &= all(r["correct"] for r in results)
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            verdict = "ok"
            if spread > m["bound"]:
                verdict = "OVER BOUND"
                ok = False
            drift = ""
            if w in earlier:
                before = statistics.median(
                    r["result"]["metrics"][m["name"]]["value"] for r in earlier[w].values())
                worse = (med - before if m["better"] == "lower" else before - med) / before
                drift = "  worse than --against by %+.3f" % worse
                if worse > m["bound"]:
                    verdict = "MEDIAN OVER BOUND"
                    ok = False
            print("  %-22s median %-14.6g spread %.3f  bound %.2f%s  %s"
                  % (m["name"], med, spread, m["bound"], drift, verdict))
        # Measured on every run but not gated (README.md, "Not gated").
        for name in UNGATED:
            values = [r["info"][name] for r in runs[w].values() if name in r["info"]]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print("  %-22s median %-14.6g spread %.3f  (info line, not gated)"
                  % (name, med, (q3 - q1) / med))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
