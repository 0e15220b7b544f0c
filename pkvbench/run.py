#!/usr/bin/env python3
"""Build pkvd and the benchmark driver from source, then run one workload.

    python3 pkvbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Run from the repository root.  Heap images, sockets, logs and Chrome
traces go to pkvbench/_work/.  The driver's last stdout line is the JSON
result; this wrapper exits with the driver's status, or 1 if the build
fails or the run overstays its time limit.  Every process the run starts
shares one process group, which is killed on the way out.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

TIME_LIMIT_S = 170


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = subprocess.run(
        dune() + ["build", "--root", root, "./bin/pkvd.exe", "./pkvbench/pkvbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    work = os.path.join(root, "pkvbench", "_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    exe = os.path.join(root, "_build", "default")
    cmd = [
        os.path.join(exe, "pkvbench", "pkvbench.exe"),
        "--pkvd", os.path.join(exe, "bin", "pkvd.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # a SIGTERM to this wrapper must still reach the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, cwd=work, start_new_session=True)
    try:
        status = proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("run.py: time limit exceeded", file=sys.stderr)
        status = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(status)


if __name__ == "__main__":
    main()
