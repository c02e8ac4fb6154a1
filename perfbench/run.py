#!/usr/bin/env python3
"""Build and run the whole-stack benchmark for one workload.

    python3 perfbench/run.py --workload tune_glimpse --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
repository's libraries and the benchmark binary (Release) into
$CARGO_TARGET_DIR, or .bench_build when unset; later runs reuse the build.
Build output goes to stderr. The last line of stdout is the JSON result:
the binary's measured metrics, checked against BENCHMARK.json and given
their units (see perfbench/README.md).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("tune_glimpse", "sweep_baselines", "serve_fleet")
# A run that outlives this is stopped and fails.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; exits non-zero on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "glimpse_perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "glimpse_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)

    # Scratch (sockets, spools, cache tiers) and trace output stay inside
    # the build directory. Unix socket paths are short relative paths.
    workdir = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    expected = expected_fingerprint(args)
    if expected:
        cmd += ["--expect-fingerprint", expected]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("".join(line + "\n" for line in lines))
        sys.exit("perfbench: glimpse_perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    result["metrics"] = with_units(result["metrics"], args.trace)
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    sys.stdout.flush()
    return 0


def expected_fingerprint(args):
    """The recorded decision fingerprint for this run, or None.

    A tuning workload's decisions depend on the seed alone (its first pass
    is always untraced), so it is checked at any seconds and trace. A
    serve_fleet schedule depends on its length too: the whole run, or each
    half of a traced run.
    """
    with open(os.path.join(HERE, "expected_fingerprints.json")) as f:
        recorded = json.load(f)
    if args.workload == "serve_fleet":
        schedule_s = args.seconds / 2 if args.trace else args.seconds
        by_length = recorded["serve_fleet"]["by_schedule_seconds"]
        return by_length.get("%g" % schedule_s, {}).get(str(args.seed))
    return recorded[args.workload].get(str(args.seed))


def with_units(measured, trace):
    """The result's metrics in BENCHMARK.json's order, with its units.

    BENCHMARK.json is the one list of metrics. A traced run prints every
    per-layer metric, 0 for a layer this workload does not run; an
    untraced run must have measured every end-to-end metric.
    """
    with open(BENCHMARK) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        sys.exit("perfbench: metrics not in BENCHMARK.json: %s" % sorted(unknown))
    out = {}
    for m in declared:
        value = measured.get(m["name"], None if not trace else 0)
        if value is None:
            sys.exit("perfbench: %s was not measured" % m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
