#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs a tiny (1 s) untraced and traced run of every workload and checks that
  * each run exits 0 with a correct result and no failed op;
  * the untraced run reports exactly BENCHMARK.json's end_to_end metrics and
    the traced run exactly its per_layer metrics, with the listed units;
  * every metric metrics.json documents is reported, failed_op_ratio in the
    log, and each per-layer metric's targets name real metrics/workloads;
  * the traced and untraced runs of one seed print the same digest;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits nonzero without printing a result.
Exits nonzero on the first failed check.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=900)


def check_metrics(got, listed, what):
    names = {m["name"]: m["unit"] for m in listed}
    if set(got) != set(names):
        fail("%s metrics differ from BENCHMARK.json: %s" %
             (what, sorted(set(got) ^ set(names))))
    for name, unit in names.items():
        if got[name]["unit"] != unit:
            fail("%s unit %s, BENCHMARK.json says %s" %
                 (name, got[name]["unit"], unit))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    doc = json.load(open(os.path.join(HERE, "metrics.json")))
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for name, info in doc["per_layer"].items():
        for move in info["moves"]:
            if move["metric"] not in doc["end_to_end"]:
                fail("%s targets unknown metric %s" % (name, move["metric"]))
            if move["workload"] not in workloads:
                fail("%s targets unknown workload %s" %
                     (name, move["workload"]))
        for w in info["no_change_on"]:
            if w not in workloads:
                fail("%s names unknown workload %s" % (name, w))
    if not end_to_end <= set(doc["end_to_end"]):
        fail("metrics.json does not document %s" %
             sorted(end_to_end - set(doc["end_to_end"])))

    for workload in workloads:
        digests = set()
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                fail("%s trace=%d exited %d:\n%s" %
                     (workload, trace, proc.returncode, proc.stderr[-2000:]))
            lines = proc.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            if result.get("correct") is not True or result["failed"] != 0:
                fail("%s trace=%d: %s" % (workload, trace, lines[-1]))
            if trace == 0:
                check_metrics(result["metrics"], bench["end_to_end"],
                              "%s end-to-end" % workload)
                extra = set(doc["end_to_end"]) - end_to_end
                for name in extra:
                    if not re.search(r"^\s+%s\s" % re.escape(name),
                                     proc.stdout, re.M):
                        fail("%s log lacks %s" % (workload, name))
            else:
                check_metrics(result["metrics"], bench["per_layer"],
                              "%s per-layer" % workload)
                missing = set(doc["per_layer"]) - set(result["metrics"])
                if missing:
                    fail("%s lacks %s" % (workload, sorted(missing)))
            digests.update(re.findall(r"^digest \S+ seed \d+: (\S+) ",
                                      proc.stdout, re.M))
        if len(digests) != 1:
            fail("%s digests differ between traced and untraced runs: %s" %
                 (workload, sorted(digests)))
        print("selftest: %s ok (digest %s)" % (workload, digests.pop()))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, workloads[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("a bare benchmark directory did not fail cleanly")
    print("selftest: bare directory fails with exit %d" % proc.returncode)
    print("selftest: ok")


if __name__ == "__main__":
    main()
