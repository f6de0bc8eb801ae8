#!/usr/bin/env python3
"""Build and run the rolling-IVM benchmark.

From the root of a checkout:

    python3 rollbench/run.py --workload star_backlog --seed 1 --seconds 35 --trace 0
    python3 rollbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 rollbench/run.py --selftest

The program is built from source with dune (the shared dune cache is
disabled, so the build writes only under _build/ in the checkout), then
rollbench.exe runs one workload and prints, as its last line, one JSON
object {correct, attempted, failed, metrics}. --trace 1 is the separate
traced run: its metrics are the per-layer ones, and its spans are written
to .rollbench/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["star_backlog", "chain_stream", "serve_reads"]
EXE = os.path.join("_build", "default", "rollbench", "rollbench.exe")
WORK_DIR = ".rollbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print("rollbench: " + msg, file=sys.stderr)
    sys.exit(1)


def env():
    e = dict(os.environ)
    e["DUNE_CACHE"] = "disabled"
    return e


def check_checkout():
    for path in ["dune-project", "lib", os.path.join("rollbench", "dune")]:
        if not os.path.exists(path):
            fail("run from the root of a checkout of the repository "
                 "(missing %s)" % path)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "rollbench/rollbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env(),
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def commit():
    """The commit, when the checkout is itself a git work tree (git is not
    asked otherwise: it would search the directories above)."""
    if not os.path.exists(".git"):
        return "unknown"
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def clean_scratch():
    """Remove what a run leaves besides its trace files."""
    if not os.path.isdir(WORK_DIR):
        return
    for name in os.listdir(WORK_DIR):
        path = os.path.join(WORK_DIR, name)
        if name.startswith("trace-"):
            continue
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            try:
                os.remove(path)
            except OSError:
                pass


def run_one(workload, seed, seconds, trace, size="full", echo=True):
    """Run one workload; return its result object (the last stdout line).
    Only the self-test passes size="tiny"."""
    e = env()
    e["ROLLBENCH_COMMIT"] = commit()
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=e, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        clean_scratch()
        fail("%s timed out" % workload)
    clean_scratch()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        if echo:
            sys.stdout.write(out)
        fail("%s exited with %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    if echo:
        print("\n".join(lines[:-1]))
    return result


def selftest():
    """Every workload (serve_reads too, which BENCHMARK.json leaves out) at
    tiny size: every metric BENCHMARK.json names is emitted with a valid
    name and unit, outputs pass the oracle gate, and the gate catches a
    corrupted copy of view contents."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for key, trace in [("end_to_end", 0), ("per_layer", 1)]:
        declared = bench[key]
        for m in declared:
            if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
                problems.append("bad name or unit in BENCHMARK.json: %s" % m)
        for w in WORKLOADS:
            r = run_one(w, 1, 2, trace, size="tiny", echo=False)
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (w, sorted(r)))
                continue
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("%s trace=%d: correct=%s failed=%s" %
                                (w, trace, r["correct"], r["failed"]))
            emitted = r["metrics"]
            for m in declared:
                got = emitted.get(m["name"])
                if got is None:
                    problems.append("%s trace=%d: %s not emitted" %
                                    (w, trace, m["name"]))
                elif got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("%s trace=%d: %s emitted as %s" %
                                    (w, trace, m["name"], got))
            for name in emitted:
                if not any(m["name"] == name for m in declared):
                    problems.append("%s trace=%d: undeclared metric %s" %
                                    (w, trace, name))
            print("selftest: %s trace=%d: %d metrics" %
                  (w, trace, len(emitted)))
    gate = subprocess.run([EXE, "selftest-gate"], capture_output=True,
                          text=True, env=env(), timeout=RUN_TIMEOUT_S)
    sys.stdout.write(gate.stdout)
    if gate.returncode != 0:
        problems.append("oracle gate did not catch corrupted contents")
    clean_scratch()
    for p in problems:
        print("selftest FAILED: " + p)
    print("selftest " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    check_checkout()
    build()
    if a.selftest:
        sys.exit(selftest())
    if a.workload is None:
        p.error("--workload is required")
    if a.workload != "all":
        result = run_one(a.workload, a.seed, a.seconds, a.trace)
        print(json.dumps(result))
        return
    # Every workload in turn; the last line combines them, each metric
    # prefixed with its workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        r = run_one(w, a.seed, a.seconds, a.trace)
        print(json.dumps(r))
        combined["correct"] = combined["correct"] and r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
