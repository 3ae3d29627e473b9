#!/usr/bin/env python3
"""Repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds perfbench/bench.exe with
dune, then starts one fresh bench.exe process per measured instance (peak
heap is a process high-water mark), repeating instances of the same
seeded workload until --seconds have passed. Every instance is checked
by the correctness gate before its numbers count.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced instances and reports the per-layer
metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe.exe")
WORKLOADS = ["rb-1sender", "consensus-byz-faults", "committee-flood", "check-rb"]
# Workloads without fault injection, where the replayed wire must equal
# the engine's own accounting.
FAULT_FREE = {"rb-1sender", "committee-flood"}
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Fewest instances a run measures, whatever --seconds says.
MIN_INSTANCES = 3
INSTANCE_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project at %s: not a checkout of the repository" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/bench.exe", "./perfbench/probe.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
    except FileNotFoundError:
        raise BenchError("dune not found on PATH")
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout)


def instance(workload, seed, traced, tamper=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if tamper:
        cmd += ["--tamper", tamper]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=INSTANCE_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("%s exited %d:\n%s" % (" ".join(cmd), r.returncode, r.stderr))
    return json.loads(r.stdout.strip().splitlines()[-1])


def probe():
    r = subprocess.run([PROBE], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=INSTANCE_TIMEOUT_S, check=True)
    return float(r.stdout)


def collect(workload, seed, seconds, trace, tamper=None):
    """Untraced (and, with trace, traced) instances until the time is up,
    with the host probe timed between consecutive instances."""
    start = time.monotonic()
    plain, traced = [], []
    before = probe()
    while True:
        t0 = time.monotonic()
        for into, traced_run in [(plain, False)] + ([(traced, True)] if trace else []):
            i = instance(workload, seed, traced_run, tamper)
            after = probe()
            i["probe_s"] = (before + after) / 2
            before = after
            into.append(i)
        per_round = time.monotonic() - t0
        elapsed = time.monotonic() - start
        enough = len(plain) >= (1 if trace else MIN_INSTANCES)
        if enough and elapsed + per_round > seconds:
            return plain, traced


def judge(workload, plain, traced):
    """Operation totals and the identity checks across instances."""
    attempted = sum(i["attempted"] for i in plain + traced)
    failed = sum(i["failed"] for i in plain + traced)
    problems = sorted({r for i in plain + traced for r in i["reasons"]})
    ref = plain[0]
    for i in plain + traced:
        same = i["digest"] == ref["digest"] and i["counts"] == ref["counts"]
        if not same:
            failed += i["attempted"] - i["failed"]
            problems.append("%s instance diverged from the first untraced one"
                            % ("traced" if i["traced"] else "untraced"))
        if i["traced"] and workload in FAULT_FREE and not i["wire_replay_equal"]:
            failed += i["attempted"] - i["failed"]
            problems.append("replayed wire differs from the engine's")
    return attempted, failed, problems


def median(xs):
    return statistics.median(list(xs))


def median_instance(instances):
    """The instance whose wall time is the (lower) median of the run."""
    ranked = sorted(instances, key=lambda i: i["wall_s"])
    return ranked[(len(ranked) - 1) // 2]


def raw(plain):
    """Wall-clock figures as measured, host drift included."""
    return {
        "wall_s": median(i["wall_s"] for i in plain),
        "work_per_s": median(i["work"] / i["wall_s"] for i in plain),
        "probe_s": median(i["probe_s"] for i in plain),
    }


# Time on this shared host drifts by ±15% over tens of seconds, whatever
# the code does (README.md, "Noise on this host"). The gated run times are
# therefore counted in host-probe units: each instance's wall time divided
# by the stdlib-only probe timed around it, which drifts with the host and
# not with the code. setup_s stays in seconds.
def end_to_end(plain):
    return {
        "setup_s": median(i["setup_s"] for i in plain),
        "wall_rel": median(i["wall_s"] / i["probe_s"] for i in plain),
        "work_per_probe": median(i["work"] * i["probe_s"] / i["wall_s"] for i in plain),
        "peak_heap_mb": median(i["gc"]["top_heap_mb"] for i in plain),
    }


# The layer numbers come from one traced instance, the median one, so the
# shares of one run add up; the allocation counts come from the untraced
# instances, whose allocation is the same for a given seed.
def per_layer(plain, traced):
    m = dict(median_instance(traced)["layers"])
    gc = median_instance(plain)["gc"]
    m["gc.minor_words_per_unit"] = gc["minor_words"] / plain[0]["work"]
    m["gc.promoted_words"] = gc["promoted_words"]
    m["gc.major_collections"] = gc["major_collections"]
    m.update(("bench." + k, v) for k, v in raw(plain).items())
    m["bench.trace_overhead_share"] = (
        median(i["wall_s"] / i["probe_s"] for i in traced)
        / median(i["wall_s"] / i["probe_s"] for i in plain) - 1)
    return m


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace, tamper=None):
    plain, traced = collect(workload, seed, seconds, trace, tamper)
    attempted, failed, problems = judge(workload, plain, traced)
    values = per_layer(plain, traced) if trace else end_to_end(plain)
    declared = spec()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {
        "workload": workload,
        "instances": len(plain) + len(traced),
        "problems": problems,
        "raw": raw(plain),
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def describe(r):
    """Human-readable lines: every metric by name and unit, the operation
    failure share, and the raw wall-clock figures."""
    res = r["result"]
    print("# %s: %d instances, %d/%d operations failed (failed_share %.4f)%s"
          % (r["workload"], r["instances"], res["failed"], res["attempted"],
             res["failed"] / res["attempted"],
             "" if not r["problems"] else ": " + "; ".join(r["problems"])))
    for name, m in res["metrics"].items():
        print("#   %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    throughput = "states_per_s" if r["workload"] == "check-rb" else "deliveries_per_s"
    print("#   raw: wall_s %.6g s, %s %.6g 1/s, probe_s %.6g s"
          % (r["raw"]["wall_s"], throughput, r["raw"]["work_per_s"], r["raw"]["probe_s"]))


def self_test():
    """The gate must fail a tampered digest and a wrong output end to end,
    and every workload must pass at the default and the held-out seed,
    with its traced run reproducing the untraced one."""
    checks = []

    def expect(name, ok):
        checks.append(ok)
        print("%s %s" % ("ok  " if ok else "FAIL", name))

    r = run("rb-1sender", DEFAULT_SEED, 0, False, tamper="digest")["result"]
    expect("tampered digest counts every operation as failed",
           not r["correct"] and r["failed"] == r["attempted"] > 0)
    r = run("consensus-byz-faults", HELD_OUT_SEED, 0, False, tamper="output")["result"]
    expect("a wrong output counts as a failed operation",
           not r["correct"] and r["failed"] >= 1)
    r = run("check-rb", HELD_OUT_SEED, 0, False, tamper="output")["result"]
    expect("a wrong checker verdict counts as failed", not r["correct"] and r["failed"] > 0)
    for w in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            r = run(w, seed, 0, True)
            expect("%s passes at seed %d, traced run identical" % (w, seed),
                   r["result"]["correct"] and r["result"]["failed"] == 0)
    return all(checks)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload or --self-test is required")
    try:
        build()
        if a.self_test:
            return 0 if self_test() else 1
        workloads = WORKLOADS if a.workload == "all" else [a.workload]
        for w in workloads:
            r = run(w, a.seed, a.seconds, a.trace == 1)
            describe(r)
            print(json.dumps(r["result"]), flush=True)
        return 0
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
