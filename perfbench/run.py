#!/usr/bin/env python3
"""Host-time benchmark of the NoMap simulator and the nomapd daemon.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload steady-base --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the benchmark (perfbench/bench.exe) and the daemon (bin/serve.exe)
with dune, runs one workload, and passes its output through.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "serve.exe")
OUT_DIR = ".perfbench"
WORKLOADS = ["steady-base", "steady-tx", "nomapd-mix"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (no dune-project or lib/ here)")
    # The shared dune cache lives outside the checkout; build without it.
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "perfbench/bench.exe", "bin/serve.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def run_bench(workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (info lines, result dict).  The process
    group is killed on timeout so a daemon it started cannot outlive it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [
        BENCH_EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--serve", SERVE_EXE, "--out", OUT_DIR,
    ] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("%s printed nothing" % workload)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s printed a malformed result" % workload)
    return lines[:-1], result


def self_test():
    """Tiny rounds of every workload: each run of a BENCHMARK.json workload
    prints every metric named there with its unit, a wrong expected result
    raises the failed count, and exact simulated counts agree across
    seeds."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]
    tiny = ["--tiny"]
    results = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, res = run_bench(workload, 1, 0.3, trace, tiny)
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                fail("self-test: %s --trace %d was not correct: %s" % (workload, trace, res))
            if workload in listed:
                for m in spec[key]:
                    got = res["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        fail("self-test: %s --trace %d printed %s as %r, expected unit %r"
                             % (workload, trace, m["name"], got, m["unit"]))
            results[(workload, trace)] = res
    _, wrong = run_bench("steady-base", 1, 0.3, 0, tiny + ["--inject-wrong-expected"])
    if wrong["failed"] <= 0 or wrong["correct"]:
        fail("self-test: a wrong expected result did not raise the failed count")
    _, other = run_bench("steady-tx", 2, 0.3, 1, tiny)
    for name, m in results[("steady-tx", 1)]["metrics"].items():
        if name.startswith("machine.sim_instrs_per_round.") or name.startswith("htm.commits_per_round."):
            if other["metrics"][name]["value"] != m["value"]:
                fail("self-test: %s differs between seeds" % name)
    print("perfbench self-test: ok (%d metrics checked, injected failures: %d)"
          % (len(spec["end_to_end"]) + len(spec["per_layer"]), wrong["failed"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_test:
        self_test()
        return
    if args.workload is None:
        ap.error("--workload is required")
    info, result = run_bench(args.workload, args.seed, args.seconds, args.trace)
    for line in info:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
