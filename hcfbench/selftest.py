#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the repository root:

    python3 hcfbench/selftest.py

1. Fault injection: builds and runs tests/fault_test.cpp, which must see
   failed_op_share rise above 0 under a result-corrupting Find wrapper.
2. Smoke: a short run of every workload in both modes prints exactly the
   metrics BENCHMARK.json names, with their units, and no failed op; the
   traced runs show each workload exercising what it was chosen for.
3. Sampling cost: on ht-read, the fastest workload, throughput with 1-in-N
   latency sampling on and off agrees within throughput_mops' bound.
4. Bare checkout: in a directory holding only BENCHMARK.json and
   hcfbench/, run.py exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import run as bench

FAILURES = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def run_py(workload, trace, seconds=1, cwd=bench.ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "hcfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# Per-layer expectations: what each workload was chosen to exercise.
EXERCISES = {
    "ht-read": [("sim_htm.aborts_per_op", "==", 0),
                ("mem.retires_per_op", "==", 0),
                ("core.share.combining", "==", 0)],
    "ht-update": [("core.share.combining", "<", 0.01),
                  ("mem.retires_per_op", ">", 0.1)],
    "pq-mixed": [("core.share.combining", ">", 0.3)],
}


def smoke(contract):
    for w in contract["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            proc = run_py(name, trace)
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            expect(result is not None, f"{name} trace={trace}: run.py succeeds")
            if result is None:
                print(proc.stderr[-2000:], file=sys.stderr)
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   f"{name} trace={trace}: result has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{name} trace={trace}: correct, no failed op")
            want = bench.expected_metrics(contract, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: every named metric, "
                   "with its unit, and no other")
            if trace:
                m = result["metrics"]
                for metric, op, bound in EXERCISES.get(name, []):
                    v = m[metric]["value"]
                    ok = {"==": v == bound, "<": v < bound, ">": v > bound}[op]
                    expect(ok, f"{name}: {metric} = {v:.4g} {op} {bound}")


def sampling_cost(contract):
    """Sampling on vs off on ht-read, interleaved, three runs each."""
    out = bench.build()
    binary = os.path.join(out, "hcfbench")
    rates = {0: [], 64: []}
    for _ in range(3):
        for every in (64, 0):
            proc = subprocess.run(
                [binary, "--workload", "ht-read", "--seed", "1", "--seconds",
                 "3", "--trace", "0", "--latency-every", str(every)],
                capture_output=True, text=True, timeout=120, check=False)
            result = last_json(proc.stdout)
            rates[every].append(result["metrics"]["throughput_mops"]["value"])
    bound = next(m["bound"] for m in contract["end_to_end"]
                 if m["name"] == "throughput_mops")
    on, off = statistics.median(rates[64]), statistics.median(rates[0])
    cost = 1 - on / off
    print(f"ht-read throughput: sampling on {on:.3f}, off {off:.3f} Mops/s "
          f"(cost {cost:+.4f})")
    expect(abs(cost) <= bound,
           f"1-in-64 latency sampling costs within the {bound} bound")


def bare_checkout():
    bare = os.path.join(bench.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(bench.HERE, os.path.join(bare, "hcfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, "hcfbench/run.py", "--workload", "ht-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=300,
        check=False)
    expect(proc.returncode != 0 and proc.stdout.strip() == "",
           "without the library sources run.py fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    contract = bench.load_contract()
    out = bench.build(("hcfbench", "hcfbench_fault_test"))
    proc = subprocess.run([os.path.join(out, "hcfbench_fault_test")],
                          capture_output=True, text=True, timeout=120,
                          check=False)
    print(proc.stdout, end="")
    expect(proc.returncode == 0, "fault injection drives failed_op_share > 0")
    smoke(contract)
    sampling_cost(contract)
    bare_checkout()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
