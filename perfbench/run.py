#!/usr/bin/env python3
"""Repository benchmark: builds lslbench from the checkout's sources and runs
one workload.

    python3 perfbench/run.py \
        --workload packet_scenarios|flow_pool|control_plane \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout. The first run configures and builds
perfbench/ (and the simulator libraries under src/) into .bench_build/perfbench;
later runs only re-check the build. Build output goes to stderr; stdout is the
benchmark's report, whose last line is the JSON result.

Besides the checks lslbench makes inside one run, this wrapper keeps each
run's result digest under .bench_build/perfbench/digests, keyed by the
binary's content hash, and fails (exit 3, no result) when a later run of the
same seed and binary -- traced or not -- reports a different digest.
Traced runs write their spans as Chrome trace JSON under
.bench_build/perfbench/spans.
"""
import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys

WORKLOADS = ("packet_scenarios", "flow_pool", "control_plane")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "lslbench")


def run_timeout_s(seconds):
    """How long lslbench may run: a traced run makes two passes of at least
    one whole window each, plus the set-ups, so allow a margin plus a
    multiple of --seconds (160 s at --seconds 20)."""
    return 60 + 5 * seconds


def build():
    """Configure (once) and build lslbench; False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources under src/ in %s" % ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "lslbench", "-j", "4"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def binary_hash():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_digest(workload, seed, report):
    """Compare this run's digest with earlier runs of the same seed."""
    match = re.search(r"^digest \S+ seed \d+: ([0-9a-f]+) ", report, re.M)
    if match is None:
        print("perfbench: lslbench printed no digest", file=sys.stderr)
        return False
    store = os.path.join(BUILD_DIR, "digests", binary_hash())
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%d.txt" % (workload, seed))
    if os.path.isfile(path):
        with open(path) as f:
            earlier = f.read().strip()
        if earlier != match.group(1):
            print("perfbench: digest %s differs from an earlier run of this "
                  "seed (%s)" % (match.group(1), earlier), file=sys.stderr)
            return False
    else:
        with open(path, "w") as f:
            f.write(match.group(1) + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenarios", os.path.join(ROOT, "scenarios")]
    if args.trace:
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: lslbench ran past %ds" % timeout, file=sys.stderr)
        return 2
    report = proc.stdout
    if proc.returncode != 0:
        # lslbench prints no result line when it fails; pass on its log.
        sys.stdout.write(report)
        return proc.returncode
    if not check_digest(args.workload, args.seed, report):
        sys.stdout.write(report.rstrip("\n").rsplit("\n", 1)[0] + "\n")
        return 3
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
