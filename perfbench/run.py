#!/usr/bin/env python3
"""Builds and runs the Canon benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload crescendo-1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

The first run configures and builds perfbench/ (which compiles ../src) in
Release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset.
Each workload runs in its own process. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1. The exit code is 0 only when every correctness check
passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["crescendo-1m", "families-16k", "flash-crowd"]
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}; "
             "run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "canon_perfbench")


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_fingerprints():
    if not os.path.isfile(FINGERPRINTS):
        return {}
    with open(FINGERPRINTS) as f:
        return json.load(f)["seeds"]


def run_binary(binary, workload, seed, seconds, trace, threads):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if threads:
        cmd.append(f"--threads={threads}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines[:-1], result


def check_fingerprint(result, seed, problems):
    """Compares the flash-crowd ladder against the recorded one, if any."""
    recorded = load_fingerprints().get(str(seed))
    if recorded is None:
        print(f"fingerprint: none recorded for seed {seed}; "
              "pass-to-pass determinism checked only")
        return
    if recorded != result["fingerprint"]:
        problems.append(f"flash-crowd fingerprint for seed {seed} differs "
                        "from perfbench/fingerprints.json")
    else:
        print(f"fingerprint: matches the one recorded for seed {seed}")


def shape_metrics(result, trace, spec, problems):
    """The result's metrics, checked against BENCHMARK.json. Per-layer
    metrics of layers the workload does not use read 0."""
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    got = result["metrics"]
    out = {}
    for name, unit in declared.items():
        if name in got:
            if got[name]["unit"] != unit:
                problems.append(f"metric {name}: unit {got[name]['unit']} "
                                f"!= declared {unit}")
            out[name] = {"value": got[name]["value"], "unit": unit}
        elif trace:
            out[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"end-to-end metric {name} missing")
    for name in got:
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
    return out


def run_workload(binary, args, spec):
    code, lines, result = run_binary(binary, args.workload_name, args.seed,
                                     args.seconds, args.trace, args.threads)
    for line in lines:
        print(line)
    if result is None:
        print(f"perfbench: {args.workload_name} produced no result "
              f"(exit {code})", file=sys.stderr)
        sys.exit(1)
    problems = list(result["check_failures"])
    if code != 0 and not problems:
        problems.append(f"canon_perfbench exited with {code}")
    if args.workload_name == "flash-crowd":
        check_fingerprint(result, args.seed, problems)
    metrics = shape_metrics(result, args.trace, spec, problems)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    return {
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def record_fingerprints(binary, seeds):
    """Re-records the flash-crowd fingerprints for `seeds`."""
    data = {"seeds": load_fingerprints()}
    for seed in seeds:
        code, _, result = run_binary(binary, "flash-crowd", seed, 1, 0, 0)
        if code != 0 or result is None:
            fail(f"flash-crowd failed on seed {seed}; nothing recorded")
        data["seeds"][str(seed)] = result["fingerprint"]
    with open(FINGERPRINTS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="worker threads (default: min(4, nproc))")
    parser.add_argument("--record-fingerprints", type=int, nargs="+",
                        metavar="SEED",
                        help="re-record the flash-crowd fingerprints of these "
                             "seeds instead of running the benchmark")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.threads < 0:
        fail("--seed and --threads must be >= 0 and --seconds > 0")

    binary = build()
    if args.record_fingerprints:
        record_fingerprints(binary, args.record_fingerprints)
        return 0
    spec = load_benchmark_spec()

    if args.workload != "all":
        args.workload_name = args.workload
        record = run_workload(binary, args, spec)
        print(json.dumps(record))
        return 0 if record["correct"] else 1

    # Every workload in turn; the closing line merges them, each metric
    # prefixed with its workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        args.workload_name = workload
        record = run_workload(binary, args, spec)
        merged["correct"] &= record["correct"]
        merged["attempted"] += record["attempted"]
        merged["failed"] += record["failed"]
        for name, m in record["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
