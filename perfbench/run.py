#!/usr/bin/env python3
"""Build and run the agedtr end-to-end benchmark (perfbench).

    python3 perfbench/run.py --workload plan|simulate|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the agedtr libraries from src/ plus the benchmark
program in perfbench/src/) as a Release build under $CARGO_TARGET_DIR, default
.bench_build/; later calls only re-check the build. Build output goes to
stderr, so the last line of stdout is the workload's JSON record:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. An untraced run is preceded by
SETUP_RUNS - 1 set-up-only processes of the same workload, so `setup_s` is
the median of SETUP_RUNS whole-process set-ups. Records, chrome traces and
per-layer tables are written under <build dir>/perfbench-results/.
`--workload all` runs every workload in its own process, prints every metric
by name with its unit, and exits nonzero if any workload's output check
failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan", "simulate")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_child(cmd, **kwargs):
    """Runs a child process to completion; kills and reaps it if we are
    interrupted, so no process outlives this script."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"the agedtr sources are missing ({ROOT}/src); run from a "
            "complete checkout")
        sys.exit(2)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_child(configure, stdout=sys.stderr) != 0:
            log("configure failed")
            sys.exit(2)
    if run_child(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs], stdout=sys.stderr) != 0:
        log("build failed")
        sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_samples(binary, out_dir, workload, seed):
    """Set-up seconds of SETUP_RUNS - 1 set-up-only processes."""
    samples = []
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--setup-only", "1", "--out", out_dir],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            log(f"set-up-only run of {workload} failed")
            sys.exit(1)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    log(f"set-up samples: {', '.join(f'{s:.4f}' for s in samples)} s "
        f"(median {statistics.median(samples):.4f} s)")
    return samples


def command(binary, results, workload, args, sha):
    out_dir = os.path.join(results,
                           f"{workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--git-sha", sha]
    if args.trace == 0:
        samples = setup_samples(binary, out_dir, workload, args.seed)
        cmd += ["--setup-samples", ",".join(repr(s) for s in samples)]
    return cmd


def run_all(binary, results, args, sha):
    """Every workload in its own process; a summary of every metric."""
    failed = []
    summary = []
    for workload in WORKLOADS:
        proc = subprocess.run(command(binary, results, workload, args, sha),
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            record = None
        if proc.returncode != 0 or record is None or not record["correct"]:
            failed.append(workload)
        if record is not None:
            for name, metric in record["metrics"].items():
                summary.append(
                    f"{workload:9s} {name:28s} {metric['value']:.6g} "
                    f"{metric['unit']}")
    print("\n".join(["", "summary:"] + summary))
    if failed:
        print(f"output checks failed: {', '.join(failed)}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    results = os.path.join(build_root, "perfbench-results")
    sha = git_sha()
    if args.workload == "all":
        return run_all(binary, results, args, sha)
    cmd = command(binary, results, args.workload, args, sha)
    sys.stdout.flush()
    return run_child(cmd)


if __name__ == "__main__":
    sys.exit(main())
