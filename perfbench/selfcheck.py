#!/usr/bin/env python3
"""Structure self-check of the benchmark's output.

    python3 perfbench/selfcheck.py [--seconds S] [--seed N]

Checks BENCHMARK.json against the benchmark contract, then runs every
workload briefly (those BENCHMARK.json lists and churn_mixed, which
run.py keeps but BENCHMARK.json does not gate), untraced and traced, and
checks that each run:

* ends with one JSON line with exactly `correct`, `attempted`, `failed`
  and `metrics`, reports `correct: true` and no failed operation;
* carries every end-to-end metric (untraced) or every per-layer metric
  (traced) of BENCHMARK.json, with its unit and a finite value;
* prints each end-to-end metric the workload defines under its own name,
  with a unit and a sample count.

It never asserts on a timing: a slow or fast machine passes alike.
Exits 0 when everything holds, 1 otherwise.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The end-to-end metrics each workload defines (the human report).
REPORTED = {
    "cold_verify": ["setup_s", "oneshot_s.p50", "oneshot_s.p90",
                    "peak_rss_mb", "error_rate"],
    "warm_serve": ["setup_s", "request_ms.p50", "request_ms.p99",
                   "requests_per_s", "peak_rss_mb", "error_rate"],
    "churn_mixed": ["setup_s", "request_ms.p50", "request_ms.p99",
                    "requests_per_s", "repair_ms.p50", "repair_ms.p90",
                    "peak_rss_mb", "error_rate"],
    "monitor_ingest": ["setup_s", "events_per_s", "batch_ms.p50",
                       "batch_ms.p99", "peak_rss_mb", "error_rate"],
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec, problems):
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        problems.append("BENCHMARK.json keys %s" % sorted(spec))
        return
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]):
            problems.append("bad workload %r" % w)
        names.add(w["name"])
    if len(names) < 2 or not names <= set(REPORTED):
        problems.append("workloads %s, expected two or more of %s"
                        % (sorted(names), sorted(REPORTED)))
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or \
                not 0 < m["bound"] <= 0.25:
            problems.append("bad end-to-end metric %r" % m)
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in spec["end_to_end"]):
        problems.append("no setup_s metric")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"} or \
                not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            problems.append("bad per-layer metric %r" % m)
    all_names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(all_names) != len(set(all_names)):
        problems.append("metric names are not unique")


def check_run(spec, workload, trace, seconds, seed, problems):
    where = "%s --trace %d" % (workload, trace)
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
        timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        problems.append("%s: exit %d: %s" % (where, r.returncode,
                                             r.stderr[-500:]))
        return
    try:
        result = json.loads(lines[-1])
    except ValueError:
        problems.append("%s: last line is not JSON" % where)
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (where, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("%s: not correct (%d failed)"
                        % (where, result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted %r" % (where, result["attempted"]))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append("%s: metrics %s" % (where, sorted(
            set(got) ^ {m["name"] for m in wanted})))
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            problems.append("%s: %s unit %r" % (where, m["name"],
                                                v.get("unit")))
        if not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            problems.append("%s: %s value %r" % (where, m["name"],
                                                 v.get("value")))
    report = "\n".join(lines[:-1])
    for name in REPORTED[workload]:
        if not re.search(r"^  %s +\S+ +\S+ +n=\d+$" % re.escape(name),
                         report, re.M):
            problems.append("%s: report lacks %s with unit and count"
                            % (where, name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec, problems)
    for w in REPORTED:
        for trace in (0, 1):
            check_run(spec, w, trace, args.seconds, args.seed, problems)
    for p in problems:
        print("selfcheck: %s" % p)
    print("selfcheck: %s" % ("ok" if not problems else
                             "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
