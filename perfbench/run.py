#!/usr/bin/env python3
"""The AUGEM repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload gemm_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds the benchmark binary from ../src (incrementally) into the build
directory, runs one workload in a fresh private cache directory with a
scrubbed AUGEM_* environment and a pinned thread count, and prints a table,
a provenance line and, last, one JSON line with the metrics BENCHMARK.json
declares for the mode (end_to_end with --trace 0, per_layer with --trace 1).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gemm_large", "small_calls", "level3", "cold_start")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (relative paths
    # resolve against the checkout root).
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no AUGEM sources at %s/src" % ROOT)
    out = build_dir() / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir() / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                        "--target", "augem_perfbench"],
                       check=True, stdout=sys.stderr)
    return out / "augem_perfbench"


def source_rev():
    """git revision when the checkout is a repository, else a digest of
    src/ and perfbench/ so results from different sources never compare
    silently."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return "git:" + rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload hermetically; returns the binary's result object."""
    threads = min(3, os.cpu_count() or 1)
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="run-", dir=runs)
    # Every AUGEM_* variable changes behaviour (thread count, tuner budgets,
    # daemon use, cache location, bench repetitions): none is inherited.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AUGEM_")}
    env["TMPDIR"] = cache
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(threads), "--cache-dir", cache,
           "--source-rev", source_rev()] + list(extra)
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / ("%s-seed%s.jsonl" % (workload, seed)))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d" % (workload, proc.returncode))
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise SystemExit("perfbench: %s printed no result" % workload)
    return json.loads(lines[-1])


def select(result, trace):
    """The declared metrics of the mode, each present, finite and with its
    declared unit."""
    chosen = {}
    for name, unit in declared_metrics(trace).items():
        m = result["metrics"].get(name)
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            raise SystemExit("perfbench: metric %s missing or not finite" % name)
        if m["unit"] != unit:
            raise SystemExit("perfbench: metric %s has unit %s, declared %s"
                             % (name, m["unit"], unit))
        chosen[name] = {"value": m["value"], "unit": unit}
    return chosen


def print_table(result, chosen):
    print("workload %s  seed %s  threads %s  trace %s  attempted %d  failed %d"
          % (result["workload"], result["provenance"]["seed"],
             result["provenance"]["threads"], result["provenance"]["trace"],
             result["attempted"], result["failed"]))
    rows = dict(chosen)
    rows.update({k: v for k, v in result["report"].items()})
    for name in sorted(rows):
        print("  %-32s %16.6g %s" % (name, rows[name]["value"], rows[name]["unit"]))


def selftest():
    """Every workload at a tiny size in both modes: every declared metric
    printed with its unit, error_rate 0; a corrupted output element must
    make error_rate non-zero."""
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            r = run_binary(binary, workload, 7, 1, trace, ["--tiny"])
            try:
                select(r, trace)
            except SystemExit as e:
                problems.append("%s trace=%d: %s" % (workload, trace, e))
            if r["failed"] != 0 or r["report"]["error_rate"]["value"] != 0:
                problems.append("%s trace=%d: %d failed" % (workload, trace, r["failed"]))
            if not trace and workload == "small_calls" \
                    and "latency_p99_us" not in r["report"]:
                problems.append("%s: no latency_p99_us" % workload)
        r = run_binary(binary, workload, 7, 1, False, ["--tiny", "--corrupt"])
        if r["failed"] < 1 or not r["report"]["error_rate"]["value"] > 0:
            problems.append("%s: corrupted output not detected" % workload)
    for p in problems:
        log("SELFTEST FAIL:", p)
    print("selftest %s (%d workloads)" % ("FAILED" if problems else "passed", len(WORKLOADS)))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    binary = build()
    result = run_binary(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    chosen = select(result, bool(args.trace))
    print_table(result, chosen)
    print(json.dumps({"provenance": result["provenance"]}))
    correct = result["failed"] == 0 and result["report"]["replica_mismatches"]["value"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
