#!/usr/bin/env python3
"""CI check for the susc observability outputs.

Usage: check_metrics_json.py SUSC_BINARY SCHEMA_JSON EXAMPLE_SUS \
           [BENCH_MONITOR] [BENCH_PLANS]

Runs the shipped example through susc five ways and asserts:
  1. `--metrics-out` emits JSON valid against tests/metrics_schema.json
     (the normative sus-metrics-v1 schema), with the parse's
     `syntax.lex_ns` and `syntax.parse_ns` time accounts above zero;
  2. `--trace-out` emits well-formed Chrome trace_event JSON;
  3. both also work through the `susc lint` subcommand;
  4. stdout/stderr and the exit code are bit-for-bit identical with and
     without the observability flags (the instrumentation may never
     change a verdict);
  5. a deliberately tripped resource budget (`--max-product-states 1`)
     exits 3, prints Inconclusive(resource) verdicts, counts the trip in
     `governor.budget_hits`, and still validates against the schema.

With the optional BENCH_MONITOR argument (the bench_monitor binary), also
smoke-runs the fused-monitor benchmark with `--quick --metrics-out=` and
asserts the emitted JSON validates and actually exercised the monitor:
`monitor.events` > 0, `monitor.fusions` >= 1, `monitor.fused_states` >= 1
and no `monitor.memo_overflows` (no bench case lowers the memo cap).

With the optional BENCH_PLANS argument (the bench_plans binary), also
smoke-runs the plan-search benchmark the same way and asserts the emitted
JSON validates and actually exercised indexed candidate selection:
`plan.index.lookups` > 0 and `plan.enumerator.plans` > 0. The `susc plan`
subcommand is additionally driven with `--metrics-out` (indexed, with one
churn round) and its metrics must validate and count `plan.index.lookups`
and `plan.repair.runs`.

The schema validator is deliberately minimal and self-contained — it
implements exactly the JSON Schema subset the schema file uses (type,
const, required, properties, additionalProperties, items, minimum) so
the check needs nothing beyond the standard library.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(msg):
    print(f"check_metrics_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(instance, schema, path="$"):
    """Validates the subset of JSON Schema used by metrics_schema.json."""
    if "const" in schema:
        if instance != schema["const"]:
            fail(f"{path}: expected {schema['const']!r}, got {instance!r}")
        return
    ty = schema.get("type")
    if ty == "object":
        if not isinstance(instance, dict):
            fail(f"{path}: expected object, got {type(instance).__name__}")
        for key in schema.get("required", []):
            if key not in instance:
                fail(f"{path}: missing required key '{key}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in props:
                validate(value, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                validate(value, extra, f"{path}.{key}")
            elif extra is False:
                fail(f"{path}: unexpected key '{key}'")
    elif ty == "array":
        if not isinstance(instance, list):
            fail(f"{path}: expected array, got {type(instance).__name__}")
        items = schema.get("items")
        if items is not None:
            for i, value in enumerate(instance):
                validate(value, items, f"{path}[{i}]")
    elif ty == "integer":
        if not isinstance(instance, int) or isinstance(instance, bool):
            fail(f"{path}: expected integer, got {instance!r}")
        if "minimum" in schema and instance < schema["minimum"]:
            fail(f"{path}: {instance} below minimum {schema['minimum']}")
    else:
        fail(f"{path}: schema uses unsupported type {ty!r}")


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True)


def check_trace(path):
    trace = json.loads(Path(path).read_text())
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    for i, ev in enumerate(events):
        for key in ("name", "cat", "ph", "pid", "tid", "ts", "dur"):
            if key not in ev:
                fail(f"{path}: traceEvents[{i}] missing '{key}'")
        if ev["ph"] != "X":
            fail(f"{path}: traceEvents[{i}] is not a complete event")
        if ev["dur"] < 0:
            fail(f"{path}: traceEvents[{i}] has negative duration")
    return len(events)


def check_bench_monitor(bench, schema, tmp):
    """The monitor leg: bench_monitor --quick must emit valid metrics
    that show the fused path actually ran."""
    metrics = str(Path(tmp) / "monitor-metrics.json")
    res = run([bench, "--quick", f"--metrics-out={metrics}"])
    if res.returncode != 0:
        fail(f"bench_monitor --quick failed: exit {res.returncode}\n"
             f"{res.stderr}")
    mon = json.loads(Path(metrics).read_text())
    validate(mon, schema)
    counters = mon["counters"]
    if counters.get("monitor.events", 0) <= 0:
        fail("bench_monitor counted no monitor.events")
    if counters.get("monitor.fusions", 0) < 1:
        fail("bench_monitor performed no monitor.fusions")
    if counters.get("monitor.fused_states", 0) < 1:
        fail("bench_monitor materialized no monitor.fused_states")
    # No bench case lowers the memo cap, so nothing may step past it.
    if counters.get("monitor.memo_overflows", 0) != 0:
        fail("bench_monitor stepped past a memo cap: "
             f"{counters['monitor.memo_overflows']} monitor.memo_overflows")


def check_bench_plans(bench, schema, tmp):
    """The plan-search leg: bench_plans --quick must emit valid metrics
    that show indexed enumeration actually ran."""
    metrics = str(Path(tmp) / "plans-metrics.json")
    res = run([bench, "--quick", f"--metrics-out={metrics}"])
    if res.returncode != 0:
        fail(f"bench_plans --quick failed: exit {res.returncode}\n"
             f"{res.stderr}")
    plans = json.loads(Path(metrics).read_text())
    validate(plans, schema)
    counters = plans["counters"]
    if counters.get("plan.index.lookups", 0) <= 0:
        fail("bench_plans performed no plan.index.lookups")
    if counters.get("plan.enumerator.plans", 0) <= 0:
        fail("bench_plans enumerated no plans")


def check_susc_plan(susc, schema, example, tmp):
    """The `susc plan` leg: an indexed run with one churn round must emit
    valid metrics that count the index and the repair engine."""
    metrics = str(Path(tmp) / "plan-metrics.json")
    res = run([susc, "plan", "--index", "--churn", "1", "--seed", "7",
               "--metrics-out", metrics, example])
    if res.returncode not in (0, 1):
        fail(f"susc plan failed: exit {res.returncode}\n{res.stderr}")
    plan = json.loads(Path(metrics).read_text())
    validate(plan, schema)
    counters = plan["counters"]
    if counters.get("plan.index.lookups", 0) <= 0:
        fail("susc plan --index performed no plan.index.lookups")
    if counters.get("plan.repair.runs", 0) <= 0:
        fail("susc plan --churn performed no plan.repair.runs")


def main():
    if len(sys.argv) not in (4, 5, 6):
        fail(f"usage: {sys.argv[0]} SUSC_BINARY SCHEMA_JSON EXAMPLE_SUS "
             f"[BENCH_MONITOR] [BENCH_PLANS]")
    susc, schema_path, example = sys.argv[1:4]
    bench_monitor = sys.argv[4] if len(sys.argv) >= 5 else None
    bench_plans = sys.argv[5] if len(sys.argv) == 6 else None
    schema = json.loads(Path(schema_path).read_text())

    with tempfile.TemporaryDirectory() as tmp:
        metrics = str(Path(tmp) / "metrics.json")
        trace = str(Path(tmp) / "trace.json")

        # Baseline: no observability flags.
        plain = run([susc, example])

        # Instrumented run: must behave identically on stdout/stderr.
        observed = run([susc, "--metrics-out", metrics,
                        "--trace-out", trace, example])
        if observed.returncode != plain.returncode:
            fail(f"exit code changed: {plain.returncode} -> "
                 f"{observed.returncode}")
        if observed.stdout != plain.stdout or observed.stderr != plain.stderr:
            fail("observability flags changed the tool output")

        observed_metrics = json.loads(Path(metrics).read_text())
        validate(observed_metrics, schema)
        # The front end's always-on layer accounts saw the parse.
        for account in ("syntax.lex_ns", "syntax.parse_ns"):
            if observed_metrics["time_accounts"].get(account, 0) <= 0:
                fail(f"time account {account} not positive after a parse")
        n_events = check_trace(trace)

        # The lint subcommand honours the same flags.
        lint_metrics = str(Path(tmp) / "lint-metrics.json")
        lint_trace = str(Path(tmp) / "lint-trace.json")
        lint = run([susc, "lint", "--metrics-out", lint_metrics,
                    "--trace-out", lint_trace, example])
        if lint.returncode not in (0, 1):
            fail(f"susc lint failed: exit {lint.returncode}\n{lint.stderr}")
        validate(json.loads(Path(lint_metrics).read_text()), schema)
        check_trace(lint_trace)

        # Governor trip: a 1-state product budget is deterministic (unlike
        # a short deadline) and must make the run inconclusive rather than
        # silently wrong — exit 3, an explicit verdict, and a counted trip.
        gov_metrics = str(Path(tmp) / "gov-metrics.json")
        governed = run([susc, "--max-product-states", "1",
                        "--metrics-out", gov_metrics, example])
        if governed.returncode != 3:
            fail(f"tripped budget run: expected exit 3, got "
                 f"{governed.returncode}\n{governed.stderr}")
        if "Inconclusive" not in governed.stdout:
            fail("tripped budget run printed no Inconclusive verdict")
        gov = json.loads(Path(gov_metrics).read_text())
        validate(gov, schema)
        if gov["counters"].get("governor.budget_hits", 0) <= 0:
            fail("governor.budget_hits not counted on a tripped run")

        if bench_monitor is not None:
            check_bench_monitor(bench_monitor, schema, tmp)
        if bench_plans is not None:
            check_bench_plans(bench_plans, schema, tmp)
            check_susc_plan(susc, schema, example, tmp)

    legs = "susc"
    if bench_monitor:
        legs += " + bench_monitor"
    if bench_plans:
        legs += " + bench_plans + susc plan"
    print(f"check_metrics_json: OK ({legs}: {n_events} trace events, "
          f"metrics valid against {Path(schema_path).name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
