#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/ (which pulls in the
library from the same tree) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs one workload and checks the result line
against BENCHMARK.json: the last line of standard output is one JSON
object with "correct", "attempted", "failed" and "metrics", where the
metrics are the end-to-end ones (--trace 0) or the per-layer ones
(--trace 1). Build logs and errors go to standard error. Any failure to
build, run or match BENCHMARK.json exits non-zero without a result line.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(command, timeout=None, **kwargs):
    """Runs `command` to completion; on any way out of here — timeout,
    error, SIGTERM or SIGINT — the child is killed and waited for."""
    child = subprocess.Popen(command, **kwargs)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def source_identity():
    """The git commit when the tree is a git checkout, else a digest of
    the library sources (a benchmark checkout carries no .git)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            return git.stdout.strip()
    digest = hashlib.sha256()
    for directory, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if run_child(step, stdout=sys.stderr)[0] != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    # SIGTERM unwinds like an error, so run_child stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("run from the repository root (no CMakeLists.txt here)")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(build_root, "perfbench"))
    # Relative, so the serve workload's socket path stays short.
    out_dir = os.path.relpath(os.path.join(build_root, "perfbench-runs"), ROOT)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir, "--commit", source_identity()]
    try:
        returncode, stdout = run_child(command, timeout=RUN_TIMEOUT_S,
                                       stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    if returncode != 0:
        sys.stderr.write(stdout)
        fail(f"{args.workload} exited with {returncode}")

    result = json.loads(lines[-1])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}")
        metrics[metric["name"]] = got
    if set(result["metrics"]) != set(metrics):
        extra = sorted(set(result["metrics"]) - set(metrics))
        fail(f"metrics not listed in BENCHMARK.json: {extra}")

    print("\n".join(lines[:-1]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
