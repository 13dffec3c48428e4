#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan_join_order --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library from src/
plus the benchmark program, optimized) under .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to standard
error, so the last line of standard output is the benchmark program's JSON result.
Extra arguments after the four standard ones (for example --statements
or --rate) are passed to the benchmark program unchanged. A traced run
(--trace 1) writes its spans to .bench_build/spans/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_identity(root: Path) -> str:
    """Digest of every file the measured program is built from, plus the
    git commit when the checkout is a repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    commit = "none"
    if (root / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    return f"sha256:{h.hexdigest()[:16]},git:{commit}"


def build(root: Path, build_dir: Path) -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    step = ["cmake", "--build", str(build_dir), "--target",
            "condsel_perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        return fail(f"no library sources under {root / 'src'}")
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    build_dir = root / ".bench_build" / "perfbench"
    try:
        if not build(root, build_dir):
            return fail("build failed")
    except subprocess.TimeoutExpired:
        return fail("build timed out")

    cmd = [str(build_dir / "condsel_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--source", source_identity(root)]
    if args.trace == "1":
        spans = root / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    cmd += extra
    env = dict(os.environ, CONDSEL_AUDIT="0", CONDSEL_LOCK_ORDER="0")
    try:
        return subprocess.run(cmd, env=env, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
