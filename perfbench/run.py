#!/usr/bin/env python3
"""Build and run the mulink serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke] [--plant-mismatch]

Run from the root of a mulink source tree. The first run configures and
builds the libraries (through the project's own CMake, Release) and the
benchmark program into .bench_build/; later runs only rebuild what
changed. Its stdout is passed through: its last line is the result JSON. Build
failures, or a tree without the mulink sources, exit non-zero without
printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "mulink", "mulink_perfbench")
WORKLOADS = ("cadence-50hz", "hop1-dram", "adaptive-faulty")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    env.setdefault("CMAKE_BUILD_PARALLEL_LEVEL", str(os.cpu_count() or 1))
    with open(log_path, "ab") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env)
    return proc.returncode


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"], log_path)
        if rc != 0:
            return rc, log_path
    return run_logged(["cmake", "--build", BUILD], log_path), log_path


def source_id():
    """Commit of a git checkout, else a digest of the sources measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="small fleet, same code paths (tests)")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="perturb one reference decision (gate test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "serve.h")):
        log("no mulink source tree in " + ROOT)
        return 2
    rc, log_path = build()
    if rc != 0:
        log("build failed (exit %d); see %s" % (rc, log_path))
        with open(log_path, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        sys.stderr.write(tail)
        return 2

    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id(),
           "--out-dir", os.path.join(BUILD, "out")]
    if args.smoke:
        cmd.append("--smoke")
    if args.plant_mismatch:
        cmd.append("--plant-mismatch")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
