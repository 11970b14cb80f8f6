#!/usr/bin/env python3
"""Repository benchmark: build the ptucker library from this checkout and
run one workload in a fresh process.

    python3 perfbench/run.py --workload compress --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke        # tiny sizes, every workload, both modes

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
WORKLOADS = ("compress", "compress_1rank", "stream", "serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build into .bench_build; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no ptucker sources next to {HERE.name}/ (expected CMakeLists.txt and src/)")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def source_digest():
    """sha256 over the library and benchmark sources (the checkout is not a
    git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*")
             if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    files.append(ROOT / "CMakeLists.txt")
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (exit code, result dict or None)."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--work_dir", str(WORK)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PERFBENCH_SOURCE_DIGEST=source_digest())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode or not lines:
        log(f"{workload} exited with code {proc.returncode}")
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    want = declared_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        log(f"{workload} reported {sorted(result['metrics'])}, BENCHMARK.json "
            f"declares {sorted(want)}")
        return 1, None
    return 0, result


def smoke():
    """Every workload at tiny sizes in both modes: checks pass, no failed
    operation, and the output matches the schema."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run(workload, 1, 1, trace, smoke=True)
            good = (code == 0 and result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1
                    and all(isinstance(m["value"], (int, float))
                            for m in result["metrics"].values()))
            log(f"smoke {workload} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    code, result = run(args.workload, args.seed, args.seconds, args.trace)
    if code:
        return code
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
