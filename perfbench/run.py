#!/usr/bin/env python3
"""Entry point of the paper-pipeline benchmark.

    python3 perfbench/run.py --workload pin3d_ldpc --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench (the library sources in src/
plus the program in this directory) into .bench_build/ when the sources
changed since the last build, then runs one workload and passes its output
through: the last stdout line is the result object. Exit status is the
program's (1 on a failed correctness check); 2 means the benchmark could
not run at all (no sources, build failure, timeout) and no result is printed.
Extra flag: --smoke runs the same code at a seconds-long scale.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over every file the build reads (library and benchmark)."""
    h = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [p for p in HERE.iterdir()
              if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build(digest):
    """Configure and build when the binary is missing or the sources moved."""
    stamp = BUILD / "source_digest"
    if BINARY.exists() and stamp.exists() and stamp.read_text() == digest:
        return
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(BUILD), "-j", jobs,
                     "--target", "perfbench"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    stamp.write_text(digest)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["pin3d_ldpc", "dco3d_ldpc", "train_ldpc"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    work_dir = BUILD / "runs"
    work_dir.mkdir(exist_ok=True)

    digest = source_digest()
    with open(BUILD / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        build(digest)

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--git", git_revision(),
           "--source-digest", digest[:16]]
    if args.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")  # subprocess.run killed it
    if r.returncode not in (0, 1):  # crashed or could not run: no result
        sys.stderr.write(r.stdout)
        fail(f"perfbench exited with status {r.returncode}")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
