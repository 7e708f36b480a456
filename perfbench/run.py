#!/usr/bin/env python3
"""Builds omshd_perfbench from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload open-batch --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; scratch artifacts go to a per-run directory inside it and
are removed afterwards. The last line printed is the benchmark's JSON report.
Exits non-zero, printing no report, when the build or the run fails.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("open-batch", "rram-open", "serve-standard", "grow")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under cmake included) and waits for it. Returns the
    CompletedProcess, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def source_id():
    """Git commit when available, else a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures once and (re)builds the benchmark binary; returns its path."""
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "omshd_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            done = run_group(cmd, BUILD_TIMEOUT_S, stdout=out,
                             stderr=subprocess.STDOUT)
            if done is None or done.returncode != 0:
                sys.stderr.write("perfbench: build failed; see %s\n" % log)
                return None
    return os.path.join(build_dir, "omshd_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 1
    work = os.path.join(build_dir, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    trace_out = os.path.join(build_dir, "traces", "%s-seed%d.json" % (
        args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--size=" + args.size, "--work-dir=" + work,
           "--trace-out=" + trace_out, "--source-id=" + source_id()]
    try:
        proc = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc is None:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # Keep the diagnostics but withhold the report of a failed run.
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: run failed (exit %d): %s\n" % (
            proc.returncode, lines[-1] if lines else ""))
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
