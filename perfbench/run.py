#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the library and the `altbench` program from source
(incrementally, into $CARGO_TARGET_DIR or .bench_build), runs one workload and
prints its result as the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics. It exits non-zero when any output
check failed, or when the metrics printed are not exactly the ones
BENCHMARK.json names for the mode.

--smoke runs every workload at tiny size, traced and untraced, and checks
that each run passes its output checks and prints every metric BENCHMARK.json
names.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build():
    """Configures (once) and builds altbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    cmake_dir = build_dir() / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs, "--target", "altbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return cmake_dir / "altbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs altbench once; returns (exit code, parsed result or None)."""
    work = build_dir() / "tmp" / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # The native JIT writes its scratch files under TMPDIR: keep them in the
    # checkout.
    env = dict(os.environ, TMPDIR=str(work))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(work)]
    if smoke:
        cmd.append("--smoke")
    # altbench forks children and runs the native compiler: give it its own
    # process group so a timeout stops all of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        log(f"{workload}: no result printed (exit {proc.returncode})")
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON: {lines[-1]!r}")
        return proc.returncode or 1, None
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        log(f"{workload}: metric set mismatch: missing={missing} extra={extra} unit={wrong}")
        result["correct"] = False
        return 1, result
    return proc.returncode, result


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            code, result = run_workload(binary, workload, 1, 1, trace, smoke=True)
            ok = code == 0 and result is not None and result["correct"]
            failures += not ok
            log(f"smoke {workload} trace={int(trace)}: {'ok' if ok else 'FAILED'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
    except (RuntimeError, OSError) as err:
        log(str(err))
        return 2
    if args.smoke:
        return smoke(binary)
    code, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                bool(args.trace))
    if result is None:
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
