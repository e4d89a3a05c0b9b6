#!/usr/bin/env python3
"""Runs one workload of the rtω serving benchmark.

    python3 servbench/run.py --workload wire_count --seed 1 --seconds 20 --trace 0
    python3 servbench/run.py --selftest

Builds the rtw_svcd daemon and the load generator from this source tree
into .bench_build/servbench (Release; the first call configures and
compiles, later calls only check that the build is current), then runs the
generator.  The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by an {"envelope": {...}} line with the host fingerprint, sample
counts and generator lateness.  Exits non-zero without a result when the
source tree is missing, the build fails or the generator fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servbench")
WORKLOADS = ("wire_count", "inproc_deadline", "inproc_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("servbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "svc", "CMakeLists.txt")):
        fail("no rtω source tree next to servbench/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_sha256():
    """Digest of the sources the measured programs are built from."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE,
             os.path.join(ROOT, "examples", "rtw_svcd.cpp"),
             os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            if p.endswith((".py", ".md")) or "__pycache__" in p:
                continue
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run(args):
    build(["servbench_gen", "rtw_svcd"])
    gen = os.path.join(BUILD, "servbench_gen")
    daemon = os.path.join(BUILD, "rtw", "examples", "rtw_svcd")
    trace_out = os.path.join(
        BUILD, "trace-%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [gen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon, "--trace-out", trace_out]
    env = dict(os.environ, SERVBENCH_GIT_SHA=git_sha(),
               SERVBENCH_SOURCE_SHA256=source_sha256())
    # Own process group: a timeout takes the daemon child down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("generator timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("generator exited with %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("generator printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("generator's last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("generator's result has the wrong keys")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


def selftest():
    build(["servbench_selftest"])
    sys.exit(subprocess.run([os.path.join(BUILD, "servbench_selftest")]).returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the tests of the benchmark's arithmetic")
    args = p.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        p.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    run(args)


if __name__ == "__main__":
    main()
