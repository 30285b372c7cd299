#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 hcfbench/run.py --workload ht-read --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds hcfbench/ with CMake into
$CARGO_TARGET_DIR/hcfbench (default .bench_build/hcfbench), runs one
workload, checks that the metrics it printed are exactly the ones
BENCHMARK.json names for that mode, and prints two JSON lines: the run's
provenance and summary, then the result object
{"correct", "attempted", "failed", "metrics"} as the last line.
With --trace 1 the spans go to <build dir>/traces/<workload>.trace.json.

Exits non-zero without printing a result when the build, the run or the
metric check fails.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "hcfbench")


def build(targets=("hcfbench",)):
    """Configures (once) and builds; returns the build directory."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")
    return out


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def expected_metrics(contract, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in contract[key]}


def cache_value(cache, name):
    for line in cache:
        if line.startswith(name + ":"):
            return line.split("=", 1)[1].strip()
    return ""


def cpu_ranges(cpus):
    cpus = sorted(cpus)
    parts, start = [], None
    for i, c in enumerate(cpus):
        if start is None:
            start = c
        if i + 1 == len(cpus) or cpus[i + 1] != c + 1:
            parts.append(str(start) if start == c else f"{start}-{c}")
            start = None
    return ",".join(parts)


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "hcfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=20,
                             check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"], capture_output=True, text=True,
            timeout=20, check=True).stdout.strip() != ""
        return sha, dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


def provenance(out_dir):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt"),
                  encoding="utf-8") as f:
            cache = f.read().splitlines()
    except OSError:
        cache = []
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True,
                                     timeout=20).stdout.splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            pass
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    flags = " ".join(f for f in (
        cache_value(cache, "CMAKE_CXX_FLAGS"),
        cache_value(cache, f"CMAKE_CXX_FLAGS_{build_type.upper()}"),
        "-std=c++20 -Wall -Wextra -Wshadow -DHCF_TELEMETRY") if f)
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "compiler": f"{compiler} ({version})" if compiler else "",
        "build_type": build_type,
        "cxx_flags": flags,
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "affinity": cpu_ranges(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {names})")

    out_dir = build()
    cmd = [os.path.join(out_dir, "hcfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir, "traces", f"{args.workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited {proc.returncode}")
    try:
        raw = json.loads(lines[-1])
    except ValueError as e:
        fail(f"unparsable benchmark output: {e}")

    want = expected_metrics(contract, args.trace)
    got = {k: v["unit"] for k, v in raw["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metric set differs from BENCHMARK.json: missing={missing} "
             f"unnamed={extra} wrong_unit={wrong}")

    print(json.dumps({"provenance": provenance(out_dir),
                      "summary": {k: v["value"]
                                  for k, v in raw["summary"].items()}}))
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": raw["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
