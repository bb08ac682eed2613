#!/usr/bin/env python3
"""Builds and runs the repo benchmark described in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test      # every workload once, tiny sizes
    python3 perfbench/run.py --regen-golden   # rewrite perfbench/golden.json

The benchmark binary (perfbench/perfbench.cpp) is built from the checkout's own sources
with CMake into $CARGO_TARGET_DIR (default .bench_build). The last line of
stdout is its result JSON; build logs and diagnostics go to stderr.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and builds incrementally; returns the binary's path."""
    if not os.path.exists(os.path.join(ROOT, "src", "runtime", "campaign.h")):
        sys.exit("perfbench: library sources (src/) not found beside perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "2"], stdout=sys.stderr,
                   check=True)
    return os.path.join(out, "perfbench")


def run_binary(cmd):
    """Runs the binary in its own process group so a timeout also stops the
    shard workers it started; returns (exit code, stdout text)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, stdout.decode()


def smoke_result(exe, workdir, workload, trace, golden=GOLDEN, extra=()):
    code, out = run_binary([exe, "--workload", workload, "--seed", "1",
                            "--seconds", "0", "--trace", str(trace), "--smoke",
                            "--golden", golden, "--workdir", workdir, *extra])
    if code != 0:
        raise AssertionError(f"{workload} trace={trace}: perfbench exited {code}")
    return json.loads(out.strip().splitlines()[-1])


def check_trace(path):
    """The trace is trace-event JSON whose spans nest within each lane, the
    shape Perfetto draws as a call stack."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    lanes = {}
    for event in events:
        if event["ph"] == "X":
            lanes.setdefault((event["pid"], event["tid"]), []).append(event)
    if not lanes:
        raise AssertionError(f"{path}: no spans")
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        open_ends = []
        for span in spans:
            while open_ends and open_ends[-1] <= span["ts"]:
                open_ends.pop()
            end = span["ts"] + span["dur"]
            if open_ends and end > open_ends[-1]:
                raise AssertionError(f"{path}: span {span} overlaps its parent")
            open_ends.append(end)


def self_test(exe, workdir):
    """Every workload at tiny sizes, traced and untraced: every metric named
    in BENCHMARK.json is emitted with its unit and every cell is ok; a
    corrupted golden hash drives ok_rate below 1; a failed shard attempt
    shows up in supervisor.retries."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = smoke_result(exe, workdir, workload, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(units.items()))
                extra = sorted(set(units.items()) - set(expected[trace].items()))
                raise AssertionError(f"{workload} trace={trace}: metrics differ "
                                     f"from BENCHMARK.json: missing {missing}, "
                                     f"extra {extra}")
            if not result["correct"] or result["failed"] != 0:
                raise AssertionError(f"{workload} trace={trace}: {result}")
            if trace == 0 and result["metrics"]["ok_rate"]["value"] != 1.0:
                raise AssertionError(f"{workload}: ok_rate below 1: {result}")
            if trace == 1:
                check_trace(os.path.join(workdir, f"trace-{workload}-1.json"))

    with open(GOLDEN) as f:
        golden = json.load(f)
    cells = golden["table1-zoo/smoke/1"]
    key = next(iter(cells))
    cells[key][0] = str((int(cells[key][0]) + 1) % 2**64)
    corrupt = os.path.join(workdir, "corrupt-golden.json")
    with open(corrupt, "w") as f:
        json.dump(golden, f)
    result = smoke_result(exe, workdir, "table1-zoo", 0, golden=corrupt)
    if result["metrics"]["ok_rate"]["value"] >= 1.0 or result["correct"]:
        raise AssertionError(f"corrupted golden hash went unnoticed: {result}")

    result = smoke_result(exe, workdir, "sharded-async", 1,
                          extra=["--fail-first-attempt"])
    if result["metrics"]["supervisor.retries"]["value"] < 1 or not result["correct"]:
        raise AssertionError(f"failed shard attempt not retried: {result}")
    print("perfbench self-test: ok", file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args()

    exe = build()
    workdir = os.path.join(build_dir(), "run")
    os.makedirs(workdir, exist_ok=True)
    if args.self_test:
        return self_test(exe, workdir)
    if args.regen_golden:
        return subprocess.call([exe, "--regen-golden", GOLDEN, "--workdir", workdir])
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    code, out = run_binary([exe, "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--golden", GOLDEN,
                            "--workdir", workdir])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
