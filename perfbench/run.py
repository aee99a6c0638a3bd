#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark binary is built from
source with dune into $CARGO_TARGET_DIR (default .bench_build), then run;
its standard output is passed through, so the last line is the result
object. Exits non-zero without a result when the sources are missing, the
build fails, or the run does not finish in time.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("tpcc", "ycsb_2pc", "ycsb_durable", "smallbank_sim")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 3)
    return proc.returncode, out


def revision():
    """The checkout's git revision, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for src in ("dune-project", os.path.join("lib", "runtime", "db.ml")):
        if not os.path.exists(src):
            fail("%s not found: run from the root of a source checkout" % src)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", build_dir, "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code, code or 1)

    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    code, out = run_group(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--rev", revision()],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
