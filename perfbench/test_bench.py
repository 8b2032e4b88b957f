#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py [workload ...]

determinism: every deterministic figure of a workload (hop counts,
    success and failure rates, the flash-crowd simulated-time figures and
    fingerprint, and every per-layer count) is identical across two runs
    at 4 threads and one run at 1 thread.
held-out seed: on HELD_OUT_SEED every correctness check passes, the
    flash-crowd fingerprint matches the recorded one, and the
    deterministic end-to-end metrics stay within their BENCHMARK.json
    bound of the default seed's.

Exits non-zero on the first failure. Takes a few minutes: each workload
runs three times plus twice more for the held-out check.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

DEFAULT_SEED = 1
HELD_OUT_SEED = 97
# Host-time and memory figures; everything else a run reports is a pure
# function of the seed.
TIMING_UNITS = {"s", "1/s", "MB"}


def deterministic(result):
    """The figures of one binary result that must repeat exactly."""
    out = {}
    for section in ("summary", "metrics"):
        for name, m in result[section].items():
            if m["unit"] in TIMING_UNITS or name.startswith("trace."):
                continue
            out[f"{section}.{name}"] = m["value"]
    if "fingerprint" in result:
        out["fingerprint"] = result["fingerprint"]
    return out


def run_or_die(binary, workload, seed, trace, threads):
    code, _, result = run.run_binary(binary, workload, seed, 1, trace, threads)
    if code != 0 or result is None or not result["correct"]:
        failures = result["check_failures"] if result else "no result"
        sys.exit(f"FAIL {workload} seed {seed} threads {threads}: exit {code}, "
                 f"{failures}")
    return result


def test_determinism(binary, workload):
    runs = [run_or_die(binary, workload, DEFAULT_SEED, 1, threads)
            for threads in (4, 4, 1)]
    base = deterministic(runs[0])
    if not base:
        sys.exit(f"FAIL {workload}: no deterministic figures reported")
    for other, label in ((runs[1], "repeat at 4 threads"),
                         (runs[2], "1 thread")):
        got = deterministic(other)
        diff = sorted(k for k in base.keys() | got.keys()
                      if base.get(k) != got.get(k))
        if diff:
            sys.exit(f"FAIL {workload} determinism ({label}): {diff}")
    print(f"ok   {workload}: {len(base)} deterministic figures identical "
          "across runs and at 1 vs 4 threads")


def test_held_out(binary, workload, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        result = run_or_die(binary, workload, seed, 0, 0)
        if workload == "flash-crowd":
            problems = []
            run.check_fingerprint(result, seed, problems)
            if problems or str(seed) not in run.load_fingerprints():
                sys.exit(f"FAIL {workload} seed {seed}: fingerprint "
                         f"{problems or 'not recorded'}")
        results[seed] = result["metrics"]
    for name in ("mean_hops", "success_rate"):
        a = results[DEFAULT_SEED][name]["value"]
        b = results[HELD_OUT_SEED][name]["value"]
        if abs(b - a) > bounds[name] * a:
            sys.exit(f"FAIL {workload} held-out seed: {name} {b} vs {a} "
                     f"is outside the bound {bounds[name]}")
    print(f"ok   {workload}: held-out seed {HELD_OUT_SEED} passes its "
          "checks and stays within bounds")


def main():
    workloads = sys.argv[1:] or run.WORKLOADS
    for w in workloads:
        if w not in run.WORKLOADS:
            sys.exit(f"unknown workload {w}")
    binary = run.build()
    spec = run.load_benchmark_spec()
    for w in workloads:
        test_determinism(binary, w)
        test_held_out(binary, w, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
