#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the repository root (it builds through perfbench/run.py).
Checks, on reduced-size runs of every workload:

  1. every end-to-end metric (--trace 0) and every per-layer metric
     (--trace 1) named in BENCHMARK.json is printed in the table with its
     unit and sample count, and the last line is the JSON result;
  2. all correctness checks pass;
  3. the exact per-layer counts repeat exactly across two traced runs;
  4. a deliberately wrong recorded digest fails the run;
  5. the service open-loop generator reports its own lateness.

Exits 1 on the first failed check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["paper_sweep", "explain_run", "service_mix"]
EXACT = ["machine.rounds", "machine.ff.bailouts", "mm.global_stages",
         "mm.shared_stages", "machine.link_stages", "mm.cache_hit_ratio",
         "machine.ff.replay_share", "service.rejected",
         "service.telemetry_dropped"]


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def run(workload, trace, seed=3, digests=None):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--reduced"]
    if digests:
        cmd += ["--digests", str(digests)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, lines, result


def check_table(workload, trace, lines, result, spec):
    if result is None:
        fail(f"{workload} trace={trace}: no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correctness failed: "
             + "\n".join(l for l in lines if l.startswith("FAILED")))
    names = [(m["name"], m["unit"]) for m in spec]
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if got != names:
        fail(f"{workload} trace={trace}: metrics {got} != {names}")
    for name, unit in names:
        row = re.compile(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+\d+$")
        if not any(row.match(l) for l in lines):
            fail(f"{workload}: table lacks '{name}' with unit {unit} and samples")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in WORKLOADS:
        code, lines, result = run(w, 0)
        if code != 0:
            fail(f"{w} trace=0 exited {code}:\n" + "\n".join(lines[-20:]))
        check_table(w, 0, lines, result, bench["end_to_end"])
        if w == "service_mix":
            for extra in ("gen_late_p99_ms", "gen_late_max_ms"):
                if not any(re.match(rf"^\s+{extra}\s+\S+\s+ms\s+\d+$", l)
                           for l in lines):
                    fail(f"service_mix does not report {extra}")
        traced = []
        for _ in range(2):
            code, lines, result = run(w, 1)
            if code != 0:
                fail(f"{w} trace=1 exited {code}:\n" + "\n".join(lines[-20:]))
            check_table(w, 1, lines, result, bench["per_layer"])
            traced.append({k: result["metrics"][k]["value"] for k in EXACT})
        if traced[0] != traced[1]:
            fail(f"{w}: exact counts differ across runs: {traced}")
        print(f"selftest: {w}: metrics, correctness and exact counts ok")

    # A wrong expected digest must fail the run.
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    points = digests["workloads"]["paper_sweep"]
    label = "sum/hmm/n4096/m32/p2048/w32/l400/d16"
    points[label][0] += 1
    bad = ROOT / ".bench_build" / "selftest-wrong-digests.json"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(json.dumps(digests))
    code, lines, result = run("paper_sweep", 0, digests=bad)
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        fail("a wrong recorded digest was not caught")
    if not any(label in l for l in lines if l.startswith("FAILED")):
        fail("the wrong digest's point is not named in the failures")
    print("selftest: wrong digest caught")
    print("selftest: ok")


if __name__ == "__main__":
    main()
