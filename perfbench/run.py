#!/usr/bin/env python3
"""Build and run the maps repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record --workload W --seed N
    python3 perfbench/run.py --selftest

Builds `mapsbench` (Release) from the sources of the checkout into
.bench_build/, then runs it. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure once, then build the mapsbench target; True on success."""
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "mapsbench", "-j", str(build_jobs())])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: build failed:", " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown (not a git checkout)"


def source_sha256():
    """Hash of every file under src/ and perfbench/, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record reference digests for --workload/--seed")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not build():
        return 1
    exe = BUILD / "cmake" / "mapsbench"
    if args.selftest:
        cmd = [str(exe), "--selftest"]
    else:
        if not args.workload:
            ap.error("--workload is required")
        cmd = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--references", str(HERE / "references")]
        if args.record:
            cmd.append("--record")
        else:
            traces = BUILD / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--seconds", str(args.seconds), "--trace",
                    str(args.trace), "--git-sha", git_sha(),
                    "--src-sha256", source_sha256()]
            if args.trace:
                cmd += ["--trace-out", str(traces / "{}-seed{}.json".format(
                    args.workload, args.seed))]
    env = dict(os.environ)
    env.pop("MAPS_CHECK", None)  # the maps::check layer stays off
    try:
        done = subprocess.run(cmd, env=env, cwd=str(ROOT),
                              timeout=None if args.record else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: mapsbench exceeded", RUN_TIMEOUT_S, "s")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
