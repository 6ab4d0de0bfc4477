#!/usr/bin/env python3
"""Build and run the hmm-sim benchmark.

    python3 perfbench/run.py --workload paper_sweep|explain_run|service_mix \
        --seed N --seconds S --trace 0|1 [--reduced] [--digests FILE]

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the library, hmmsimd and the hmmbench driver)
into .bench_build/perfbench; later runs only rebuild what changed.  Build
output goes to stderr, so the last line of stdout is hmmbench's JSON
result.  Exits non-zero, printing no result, when the sources are missing
or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_sha256():
    """Digest of every file the benchmark builds from (the checkout is not
    always a git repository, so this identifies the code when no commit
    does)."""
    files = sorted(
        p for d in (ROOT / "src", BENCH_DIR) for p in d.rglob("*")
        if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".json", ".py")
    )
    files.append(ROOT / "tools" / "hmmsimd.cpp")
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs,
           "--target", "hmmbench", "hmmsimd"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_sweep", "explain_run", "service_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--reduced", action="store_true",
                    help="self-test sizes: a subset of every workload")
    ap.add_argument("--digests", default=str(BENCH_DIR / "digests.json"),
                    help="recorded simulated-result digests")
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/hmmsimd.cpp", "machines"):
        if not (ROOT / needed).exists():
            fail(f"missing {needed}: run from a full hmm-sim checkout")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    out_dir = build_root / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    build(build_dir)

    cmd = [str(build_dir / "hmmbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--machines", os.path.relpath(ROOT / "machines"),
           "--daemon", str(build_dir / "hmmsimd"),
           "--digests", args.digests,
           "--out-dir", os.path.relpath(out_dir),
           "--commit", commit(), "--source-sha256", source_sha256()]
    if args.reduced:
        cmd.append("--reduced")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"hmmbench exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
