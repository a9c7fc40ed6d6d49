#!/usr/bin/env python3
"""Build and run the repository benchmark (see pudbench/README.md).

    python3 pudbench/run.py --workload table2 --seed 1 --seconds 25 --trace 0
    python3 pudbench/run.py --selfcheck
    python3 pudbench/run.py --record-digests

Run from the repository root.  The benchmark compiles the program's
libraries from src/ and the pudbench driver into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}, where
metrics are the end-to-end metrics of BENCHMARK.json with --trace 0 and
its per-layer metrics with --trace 1, each with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["table2", "fleet", "fuzz", "mitigate"]
DIGESTS = HERE / "digests.txt"
RECORDED_FULL_SEEDS = range(1, 11)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"pudbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "pudbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)}")
    return build_dir / "pudbench"


def spec_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(binary, workload, seed, seconds, trace, scale="full",
                 extra=()):
    """Run one workload; returns (result dict, stderr text)."""
    workdir = ROOT / ".bench_work" / str(os.getpid())
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--scale={scale}", f"--workdir={workdir}",
           f"--digests={DIGESTS}", *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # not empty: another run is using it
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    raw = json.loads(lines[-1])

    metrics = {}
    for m in spec_metrics(trace):
        if m["name"] not in raw["metrics"]:
            fail(f"{workload}: metric {m['name']} missing")
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                              "unit": m["unit"]}
    extra_names = set(raw["metrics"]) - set(metrics)
    if extra_names:
        fail(f"{workload}: metrics not in BENCHMARK.json: {extra_names}")
    result = {"correct": raw["failed"] == 0 and raw["attempted"] >= 1,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    return result, proc.stderr


def selfcheck(binary):
    """Every workload at tiny scale through schema, digest, invariants."""
    problems = []
    for w in WORKLOADS:
        for trace in (False, True):
            res, err = run_workload(binary, w, 1, 1, trace, scale="tiny")
            if not res["correct"] or "(recorded)" not in err:
                problems.append(f"{w} trace={int(trace)}: {res} "
                                "(expected correct and a recorded digest)")
        res, _ = run_workload(binary, w, 1, 1, False, scale="tiny",
                              extra=["--corrupt-digest"])
        if (res["correct"] or res["failed"] != res["attempted"]
                or res["metrics"]["pass_rate"]["value"] != 0):
            problems.append(f"{w}: corrupted digest not counted: {res}")
        print(f"selfcheck {w}: ok" if not problems else
              f"selfcheck {w}: FAILED", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"selfcheck": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def record_digests(binary):
    """Rewrite digests.txt from the current program's outputs."""
    runs = [(w, "tiny", 1) for w in WORKLOADS]
    runs += [(w, "full", s) for w in WORKLOADS for s in RECORDED_FULL_SEEDS]
    lines = ["# workload scale seed digest (written by run.py "
             "--record-digests)"]
    DIGESTS.write_text("\n".join(lines) + "\n")
    for w, scale, seed in runs:
        _, err = run_workload(binary, w, seed, 0, False, scale=scale)
        line = next(l for l in err.splitlines() if l.startswith("digest "))
        lines.append(line[len("digest "):])
        print(lines[-1], file=sys.stderr)
    DIGESTS.write_text("\n".join(lines) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.selfcheck or args.record_digests):
        ap.error("give --workload, --selfcheck or --record-digests")

    binary = build()
    if args.selfcheck:
        return selfcheck(binary)
    if args.record_digests:
        return record_digests(binary)
    result, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
