#!/usr/bin/env python3
"""End-to-end benchmark of the SUS verifier: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds susc, susd and the compiled harness (perfbench/susbench) from the
checkout into $CARGO_TARGET_DIR (default .bench_build), generates the
workload's inputs and known answers from the seed (perfbench/gen.py), runs
the workload for S seconds, checks every answer, prints a report and, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics of the traced run (perfbench/README.md
defines each one). Exits 2 without a result when the build or the run
cannot complete.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import gen  # noqa: E402

WORKLOADS = ("cold_verify", "warm_serve", "churn_mixed", "monitor_ingest")
SETUPS = 15           # set-ups per run; setup_s is their median
CONNECTIONS = 1       # closed-loop connections (<= nproc)
MONITOR_WORKERS = 2   # MonitorEngine shards
# Traffic mixes, in percent of requests. Reads are `verify client=<c>`
# (drawn uniformly over the clients), full `verify` and `stats`.
READ_MIX = {"verify_client": 90, "verify_all": 5, "stats": 5}
CHURN_MIX = {"verify_client": 80, "verify_all": 5, "stats": 5, "churn": 10}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(round(pct / 100.0 * len(s) + 0.5)) - 1))
    return s[k]


def pin():
    """Confines this process, and every process it starts from now on, to
    one CPU (the highest-numbered it may use). On a shared host a thread
    that wakes another on a different CPU waits whenever the hypervisor
    has taken that CPU away; on one CPU the load generator and the daemon,
    or the ingest thread and its shard threads, hand work over without
    that wait."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def tail_ok(n, pct):
    """True when percentile pct of n samples has at least ten beyond it."""
    return n * (100 - pct) / 100.0 >= 10


# A shared host may be busy with other work for seconds at a time. Tails and
# rates are therefore taken per window of the run (each window holding
# enough samples for the statistic) and reported as the median over the
# windows; with fewer than three windows, over the whole run.

def windows(starts, wall_ns, per_window):
    """(k, length): the run cut into k equal windows of at least 1 s that
    hold about per_window samples each; k is 0 when fewer than 3 fit."""
    k = int(wall_ns // max(1e9, per_window * wall_ns / max(1, len(starts))))
    return (k, wall_ns / k) if k >= 3 else (0, wall_ns)


def window_tail(starts, values, wall_ns, pct):
    """Median over windows of percentile pct, each window holding enough
    samples for ten to lie beyond it."""
    k, length = windows(starts, wall_ns, 10.0 / (1 - pct / 100.0))
    if not k:
        return percentile(values, pct)
    per = [array("d") for _ in range(k)]
    for t, v in zip(starts, values):
        if t < k * length:
            per[int(t // length)].append(v)
    return statistics.median(percentile(w, pct) for w in per if w)


def window_rate(starts, wall_ns, work=None, busy_ns=None):
    """Median over 1 s windows of work done per second: per sample one
    unit (or work[i]), per window its length (or the sum of busy_ns)."""
    k, length = windows(starts, wall_ns, 100)
    if not k:
        done = sum(work) if work else len(starts)
        return done / ((sum(busy_ns) if busy_ns else wall_ns) / 1e9)
    done, busy = [0] * k, [0] * k
    for i, t in enumerate(starts):
        if t < k * length:
            j = int(t // length)
            done[j] += work[i] if work else 1
            busy[j] += busy_ns[i] if busy_ns else 0
    return statistics.median(done[j] / ((busy[j] if busy_ns else length) / 1e9)
                             for j in range(k) if done[j])


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repository sources next to perfbench/")
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = os.path.join(ROOT, out)
    sus, harness = os.path.join(out, "sus"), os.path.join(out, "susbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def run(argv):
        r = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT)
        if r.returncode != 0:
            log(r.stdout.decode(errors="replace")[-4000:])
            raise BenchError("build step failed: %s" % " ".join(argv))

    if not os.path.isfile(os.path.join(sus, "CMakeCache.txt")):
        run(["cmake", "-S", ROOT, "-B", sus])
    run(["cmake", "--build", sus, "-j", jobs, "--target", "susc", "susd"])
    if not os.path.isfile(os.path.join(harness, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(HERE, "susbench"), "-B", harness,
             "-DSUS_BUILD_DIR=" + sus])
    run(["cmake", "--build", harness, "-j", jobs])
    tools = os.path.join(sus, "src", "tools")
    return {"susc": os.path.join(tools, "susc"),
            "susd": os.path.join(tools, "susd"),
            "susbench": os.path.join(harness, "susbench")}


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------

def parse_report(text):
    """Per client: the set of valid enumerated plans in a verify report."""
    clients, cur = {}, None
    for line in text.splitlines():
        if line.startswith("== client ") and line.endswith(" =="):
            cur = line[len("== client "):-3]
            clients[cur] = set()
        elif line.startswith("  plan {") and line.endswith(": VALID"):
            body = line[len("  plan {"):line.index("}")]
            plan = []
            for b in body.split(", "):
                r, loc = b.split(" -> ")
                plan.append((int(r), loc))
            clients[cur].add(tuple(sorted(plan)))
    return clients


def check_verdicts(text, expected, only=None):
    """Empty when the report's valid plans match the known answer."""
    got = parse_report(text)
    want = {c: set(v) for c, v in expected.items()
            if only is None or c == only}
    if got != want:
        bad = sorted(c for c in set(got) | set(want)
                     if got.get(c) != want.get(c))
        return "verdicts differ from the known answer for %s" % bad
    return ""


def bindings_tried(text):
    """Sum of the `bindings tried` counts of a verify report."""
    return sum(int(line.split("bindings tried: ")[1].rstrip(")"))
               for line in text.splitlines() if "bindings tried: " in line)


def index_share(tried, repo, res):
    """Share of the bindings a full scan would try that were never tried."""
    res.shares["bindings the index pruned"] = (
        1 - tried / repo.scan_bindings,
        "%d of %d bindings tried" % (tried, repo.scan_bindings))


def expected_exit(expected, only=None):
    plans = [v for c, v in expected.items() if only is None or c == only]
    return 0 if all(plans) else 1


def churn_reference(expected):
    """The valid-plan lines a churn response must carry: the churn
    removes and re-publishes one service, so every count is unchanged."""
    lines = []
    for c in sorted(expected):
        lines.append("valid plans: %d" % len(expected[c]))
        lines.append("valid plans after churn: %d" % len(expected[c]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Processes and the daemon
# ---------------------------------------------------------------------------

def run_timed(argv, cwd):
    """Runs one process to completion: (seconds, exit, stdout, maxrss KiB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    elapsed = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    return elapsed, p.returncode, out.decode(errors="replace"), usage.ru_maxrss


def request(sock, line, timeout=60.0):
    """One sus/1 round trip: (exit, body)."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(sock)
        s.sendall((line + "\n").encode())
        data = b""
        while b"\n" not in data:
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("short read from daemon")
            data += chunk
        head, _, body = data.partition(b"\n")
        parts = head.decode().split()
        if len(parts) != 3 or parts[0] != "sus/1":
            raise BenchError("protocol error: %r" % head)
        n = int(parts[2])
        while len(body) < n:
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("short read from daemon")
            body += chunk
        return int(parts[1]), body.decode(errors="replace")
    finally:
        s.close()


class Daemon:
    """A susd serving on a socket inside the work directory."""

    def __init__(self, tools, work, args):
        self.sock = "susd.sock"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [tools["susd"]] + args + ["--listen", self.sock, "repo.sus"],
            cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = t0 + 120
        # Relative: the run works inside `work`, and an AF_UNIX path is
        # limited to about 100 bytes.
        path = self.sock
        while True:
            if self.proc.poll() is not None:
                raise BenchError("susd exited with %d at start-up"
                                 % self.proc.returncode)
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("susd did not answer ping")
            try:
                if os.path.exists(path) and \
                        request(path, "sus/1 ping") == (0, "pong\n"):
                    break
            except (OSError, BenchError):
                pass
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - t0
        self.path = path

    def peak_rss_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            try:
                request(self.sock, "sus/1 shutdown", timeout=30)
                self.proc.wait(timeout=30)
            except (OSError, BenchError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.metrics = {}       # name -> (value, unit, samples)
        self.layers = {}        # per-layer name -> value
        self.shares = {}        # property -> (share, base)

    def fail(self, msg):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(msg)

    def put(self, name, value, unit, n):
        self.metrics[name] = (value, unit, n)

    def layer(self, name, value):
        self.layers[name] = float(value)


def write_repository(work, seed):
    repo = gen.make_repository(seed)
    with open(os.path.join(work, "repo.sus"), "w") as f:
        f.write(repo.text)
    return repo


def cold_verify(tools, work, seed, seconds, res, traced):
    repo = write_repository(work, seed)
    susc = tools["susc"]

    setups = []
    for _ in range(SETUPS):
        dt, code, out, _ = run_timed([susc, "--no-enumerate", "repo.sus"],
                                     work)
        res.attempted += 1
        # The files declare no plans, so no client has a valid one.
        if code != 1:
            res.fail("susc --no-enumerate exited %d, expected 1" % code)
        setups.append(dt)
    res.put("setup_s", statistics.median(setups), "s", len(setups))

    times, rss = [], []
    reference = None
    # The traced run interleaves each susc process with one in-process
    # replay (alternately traced and untraced), so both see the same
    # machine; each replay is its own process and so pays a fresh
    # process's page faults, like susc.
    replays = {0: [], 1: []}
    t_end = time.perf_counter() + seconds * (0.9 if traced else 1.0)
    t0 = time.perf_counter()
    while time.perf_counter() < t_end or len(times) < 3 or \
            (traced and len(replays[0]) < 2):
        dt, code, out, maxrss = run_timed([susc, "repo.sus"], work)
        res.attempted += 1
        bad = ""
        if code != repo.expected_exit:
            bad = "susc exited %d, expected %d" % (code, repo.expected_exit)
        elif reference is None:
            bad = check_verdicts(out, repo.clients)
            reference = out
            with open(os.path.join(work, "expect.txt"), "w") as f:
                f.write(reference)
        elif out != reference:
            bad = check_verdicts(out, repo.clients) or \
                "susc output changed between runs"
        if bad:
            res.fail(bad)
        times.append(dt)
        rss.append(maxrss)
        if traced:
            on = len(replays[1]) <= len(replays[0])
            replays[int(on)].append(run_susbench(tools, work, [
                "replay", "--mode", "cold", "--file", "repo.sus",
                "--expect", "expect.txt", "--traced", str(int(on))]))
    wall = time.perf_counter() - t0
    n = len(times)
    res.put("oneshot_s.p50", percentile(times, 50), "s", n)
    res.put("oneshot_s.p90", percentile(times, 90), "s", n)
    res.put("peak_rss_mb", statistics.median(rss) / 1024.0, "MB", n)
    res.put("ops_per_s", n / wall, "1/s", n)
    if not traced and not tail_ok(n, 90):
        log("warning: only %d one-shot samples; p90 has fewer than ten "
            "beyond it" % n)

    # Property shares, from the program's own metrics export.
    mpath = os.path.join(work, "metrics.json")
    _, code, _, _ = run_timed([susc, "--metrics-out", mpath, "repo.sus"],
                              work)
    with open(mpath) as f:
        c = json.load(f)["counters"]
    hits = c.get("verifier.cache.compliance.hits", 0)
    lookups = hits + c.get("verifier.cache.compliance.misses", 0)
    res.shares["compliance lookups that hit the cache"] = (
        hits / max(1, lookups), "%d lookups" % lookups)
    index_share(c.get("plan.enumerator.bindings_tried", 0), repo, res)
    res.shares["requests that are writes"] = (0.0, "%d one-shot runs" % n)

    if traced:
        layers_cold(replays[1], replays[0], res)


def serve_common(tools, work, seed, seconds, res, traced, churn):
    pin()
    repo = write_repository(work, seed)
    snap = None
    if not churn:
        # The snapshot is cut once, before any timing.
        r = subprocess.run([tools["susd"], "--warm", "--save-snapshot",
                            "repo.snap", "repo.sus"], cwd=work,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=120)
        if r.returncode != repo.expected_exit:
            raise BenchError("snapshot cut exited %d" % r.returncode)
        snap = "repo.snap"
    args = ["--snapshot", snap] if snap else ["--warm"]

    setups, started = [], []
    try:
        for i in range(SETUPS):
            daemon = Daemon(tools, work, args)
            started.append(daemon)
            res.attempted += 1
            setups.append(daemon.ready_s)
            if i < SETUPS - 1:
                daemon.stop()
        res.put("setup_s", statistics.median(setups), "s", len(setups))

        # Reference answers: the daemon's first answer to every read,
        # checked against the known answer; later answers must repeat it
        # byte for byte.
        entries, tried = [], 0
        names = sorted(repo.clients)
        for c in names:
            code, body = request(daemon.path, "sus/1 verify client=" + c)
            res.attempted += 1
            bad = check_verdicts(body, repo.clients, only=c)
            if code != expected_exit(repo.clients, c):
                bad = bad or "verify client=%s exited %d" % (c, code)
            if bad:
                res.fail(bad)
            ref = "ref_%s.txt" % c
            with open(os.path.join(work, ref), "w") as f:
                f.write(body)
            tried += bindings_tried(body)
            entries.append(("verify_client:" + c, "verify_client", "bytes",
                            expected_exit(repo.clients, c), ref,
                            "sus/1 verify client=" + c))
        code, body = request(daemon.path, "sus/1 verify")
        res.attempted += 1
        bad = check_verdicts(body, repo.clients)
        if code != repo.expected_exit:
            bad = bad or "verify exited %d" % code
        if bad:
            res.fail(bad)
        with open(os.path.join(work, "ref_all.txt"), "w") as f:
            f.write(body)
        entries.append(("verify_all", "verify_all", "bytes",
                        repo.expected_exit, "ref_all.txt", "sus/1 verify"))
        with open(os.path.join(work, "ref_stats.txt"), "w") as f:
            f.write("cache: compliance ")
        entries.append(("stats", "stats", "prefix", 0, "ref_stats.txt",
                        "sus/1 stats"))
        with open(os.path.join(work, "ref_churn.txt"), "w") as f:
            f.write(churn_reference(repo.clients))
        entries.append(("churn", "churn", "lines", repo.expected_exit,
                        "ref_churn.txt", "sus/1 churn rounds=1 seed={seed}"))
        write_mix(work, "mix.txt", entries, CHURN_MIX if churn else READ_MIX)
        write_mix(work, "mix_churn.txt", entries, CHURN_MIX)

        # The traced run of warm_serve also replays churn_mixed's mix in
        # process, so it splits its time three ways.
        budget = seconds * ((0.4 if churn else 0.3) if traced else 1.0)
        load = run_susbench(tools, work, [
            "load", "--socket", "susd.sock", "--mix", "mix.txt",
            "--conns", str(CONNECTIONS), "--seconds", str(budget),
            "--seed", str(seed), "--pings", "300" if traced else "0"])
        stats_code, stats_body = request(daemon.path, "sus/1 stats")
        rss_kb = daemon.peak_rss_kb()
    finally:
        for d in started:
            d.stop()

    # The samples: int64 quadruples (kind, ok, start ns, latency ns).
    raw = array("q")
    with open(load["samples_file"], "rb") as f:
        raw.frombytes(f.read())
    kind, ok, start, lat_ns = raw[0::4], raw[1::4], raw[2::4], raw[3::4]
    del raw
    kinds = load["kinds"]
    is_write = [k == "churn" for k in kinds]
    n = len(kind)
    res.attempted += n + len(load["ping_ns"])
    res.errors.extend(load["errors"])
    res.failed += n - sum(ok) + load["ping_failed"]
    # A failed request misses every latency limit: it counts as lasting
    # the whole run.
    wall = load["wall_ns"]
    rd_lat, wr_lat = array("d"), array("d")
    rd_start, wr_start = array("q"), array("q")
    reads_by_kind = [0] * len(kinds)
    for k, o, t, l in zip(kind, ok, start, lat_ns):
        v = l / 1e6 if o else wall / 1e6
        if is_write[k]:
            wr_lat.append(v)
            wr_start.append(t)
        else:
            rd_lat.append(v)
            rd_start.append(t)
            reads_by_kind[k] += 1
    if not rd_lat or (churn and not wr_lat):
        raise BenchError("the load produced no samples")
    res.put("request_ms.p50", percentile(rd_lat, 50), "ms", len(rd_lat))
    res.put("request_ms.p99", window_tail(rd_start, rd_lat, wall, 99), "ms",
            len(rd_lat))
    res.put("requests_per_s", window_rate(start, wall), "1/s", n)
    if churn:
        res.put("repair_ms.p50", percentile(wr_lat, 50), "ms", len(wr_lat))
        res.put("repair_ms.p90", window_tail(wr_start, wr_lat, wall, 90),
                "ms", len(wr_lat))
    res.put("peak_rss_mb", rss_kb / 1024.0, "MB", 1)
    # What the traced run's layer accounting needs from the load.
    load["read_mean_ms"] = statistics.fmean(rd_lat)
    load["reads_by_kind"] = {kinds[k]: c for k, c in enumerate(reads_by_kind)
                             if c}
    load["write_share"] = len(wr_lat) / n

    # Property shares, from the daemon's own `stats` answer.
    hits = lookups = 0
    if stats_code == 0 and stats_body.startswith("cache: compliance "):
        h, _, l = stats_body.split()[2].partition("/")
        hits, lookups = int(h), int(l)
    res.shares["compliance lookups that hit the cache"] = (
        hits / max(1, lookups), "%d lookups" % lookups)
    index_share(tried, repo, res)
    res.shares["requests that are writes"] = (load["write_share"],
                                              "%d requests" % n)

    if traced:
        extra = ["--snapshot", snap] if snap else []
        out = run_susbench(tools, work, [
            "replay", "--mode", "churn" if churn else "warm",
            "--file", "repo.sus", "--mix", "mix.txt", "--seed", str(seed),
            "--seconds", str(seconds * (0.5 if churn else 0.3))] + extra)
        layers_serve(out, load, res, churn)
        if not churn:
            # warm_serve sends no writes. The layers only a write reaches
            # are taken from an in-process replay of churn_mixed's mix on a
            # `susd --warm`-style session.
            out = run_susbench(tools, work, [
                "replay", "--mode", "churn", "--file", "repo.sus",
                "--mix", "mix_churn.txt", "--seed", str(seed),
                "--seconds", str(seconds * 0.3)])
            check_susbench(out, res)
            count_replay(out, res)
            layers_churn(out, res)


def write_mix(work, name, entries, table):
    """A susbench mix file: every entry of a kind the table lists, weighted
    by the kind's share in percent (the clients split `verify_client`)."""
    per_kind = {}
    for e in entries:
        per_kind[e[1]] = per_kind.get(e[1], 0) + 1
    with open(os.path.join(work, name), "w") as f:
        for label, kind, check, code, ref, line in entries:
            if kind in table:
                f.write("%s %d %s %d %s %s\n" % (
                    label, table[kind] * 100 // per_kind[kind], check, code,
                    ref, line))


def monitor_ingest(tools, work, seed, seconds, res, traced):
    pin()
    mon = gen.make_monitor(seed)
    with open(os.path.join(work, "monitor.sus"), "w") as f:
        f.write(mon.policy_text)
    mon.write_trace(os.path.join(work, "monitor.trace"))
    out = run_susbench(tools, work, [
        "monitor", "--policies", "monitor.sus", "--trace", "monitor.trace",
        "--seconds", str(seconds), "--setups", str(SETUPS),
        "--workers", str(MONITOR_WORKERS), "--traced", "1" if traced else "0"])
    batches = out["batch_ns"]
    res.attempted += out["passes"] * out["batches_per_pass"] + SETUPS
    res.failed += out["mismatches"]
    if out["error"]:
        res.errors.append(out["error"])
    res.put("setup_s", statistics.median(out["setup_ns"]) / 1e9, "s",
            len(out["setup_ns"]))
    starts = out["batch_start_ns"]
    wall = starts[-1] + batches[-1]
    res.put("events_per_s", window_rate(starts, wall, out["batch_events"],
                                        batches), "1/s", out["events"])
    res.put("batch_ms.p50", percentile(batches, 50) / 1e6, "ms", len(batches))
    res.put("batch_ms.p99", window_tail(starts, batches, wall, 99) / 1e6,
            "ms", len(batches))
    res.put("peak_rss_mb", out["peak_rss_kb"] / 1024.0, "MB", 1)
    res.shares["monitor sessions fused"] = (
        out["fused_sessions"] / max(1, out["sessions"]),
        "%d sessions, %d refused fusion"
        % (out["sessions"], out["sessions"] - out["fused_sessions"]))
    res.shares["events blocked"] = (
        out["pass_blocked"] / max(1, out["pass_events"]),
        "%d events per pass" % out["pass_events"])
    if traced:
        layers_monitor(out, res)


def run_susbench(tools, work, args):
    outfile = "susbench_%s.json" % args[0]
    r = subprocess.run([tools["susbench"]] + args + ["--out", outfile],
                       cwd=work, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, timeout=170)
    if r.returncode != 0:
        raise BenchError("susbench %s failed: %s"
                         % (args[0], r.stderr.decode(errors="replace")))
    with open(os.path.join(work, outfile)) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Per-layer metrics (the traced run)
# ---------------------------------------------------------------------------

def spans_by_op(trace):
    """{span name: {op: summed duration in ns}}."""
    out = {}
    for name, op, _parent, start, end in trace["spans"]:
        d = out.setdefault(name, {})
        d[op] = d.get(op, 0) + (end - start)
    return out


def med_ms(by_op, name, ops=None):
    vals = [v for o, v in by_op.get(name, {}).items()
            if ops is None or o in ops]
    return statistics.median(vals) / 1e6 if vals else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def check_susbench(out, res):
    for e in out.get("errors", []):
        res.fail(e)
    res.layer("trace.dropped_spans", res.layers.get("trace.dropped_spans", 0) +
              out["trace"]["dropped"])
    if out["trace"]["dropped"]:
        res.fail("%d spans dropped" % out["trace"]["dropped"])


def layers_cold(traced, untraced, res):
    for out in traced + untraced:
        check_susbench(out, res)
    res.attempted += len(traced) + len(untraced)
    by_op = {}
    for i, out in enumerate(traced):
        for name, per_op in spans_by_op(out["trace"]).items():
            by_op.setdefault(name, {})[i] = sum(per_op.values())
    last = traced[-1]
    parse = med_ms(by_op, "syntax.parse")
    res.layer("syntax.parse_ms", parse)
    res.layer("syntax.mb_per_s", ratio(last["source_bytes"] / 1e6,
                                       parse / 1e3))
    res.layer("hist.nodes", last["hist_nodes"])
    res.layer("hist.symbols", last["hist_symbols"])
    common_counters(last["counters"], last["verifier_stats"], res, ops=1)
    res.layer("core.verifier_build_ms", med_ms(by_op, "core.verifier_build"))
    res.layer("core.verify_client_ms", med_ms(by_op, "core.verify_client"))
    res.layer("core.render_ms", med_ms(by_op, "core.render"))
    res.layer("core.report_kb", last["report_bytes"] / 1024.0)
    teardown = sum(med_ms(by_op, n) for n in (
        "core.teardown", "syntax.teardown", "hist.teardown"))
    res.layer("teardown_ms", teardown)
    # Attribution: the named layers of one one-shot against the median
    # wall time of a real `susc FILE` process. Process start, static
    # initialisation and exit are the residual.
    named = teardown + sum(med_ms(by_op, n) for n in (
        "syntax.read", "syntax.parse", "core.verifier_build",
        "core.verify_client", "core.render"))
    wall = res.metrics["oneshot_s.p50"][0] * 1e3
    res.layer("residual_ms", wall - named)
    res.layer("attributed_share", ratio(named, wall))
    res.layer("trace_overhead",
              ratio(statistics.median(o["total_ns"] for o in traced),
                    statistics.median(o["total_ns"] for o in untraced)) - 1)


def common_counters(c, st, res, ops):
    tried = c["plan.enumerator.bindings_tried"]
    res.layer("plan.bindings_tried", tried / ops)
    res.layer("plan.useful_ratio", ratio(c["plan.enumerator.plans"], tried))
    res.layer("plan.index_candidates", c["plan.index.candidates"] / ops)
    res.layer("contract.compliance_checks", c["compliance.checks"] / ops)
    res.layer("contract.prescreen_rejects",
              (c["plan.prescreen.alphabet_rejects"] +
               c["plan.prescreen.first_step_rejects"]) / ops)
    res.layer("validity.checks", c["validity.checks"] / ops)
    res.layer("automata.kernel_ms", c["automata.kernel_ns"] / 1e6 / ops)
    res.layer("core.cache.compliance_hit_ratio",
              ratio(st["compliance_hits"], st["compliance_lookups"]))
    res.layer("core.cache.projection_hit_ratio",
              ratio(st["projection_hits"], st["projection_lookups"]))
    res.layer("core.cache.validity_hit_ratio",
              ratio(st["validity_hits"], st["validity_lookups"]))


def count_replay(out, res):
    """Every request of an in-process replay counts as attempted."""
    res.attempted += sum(len(v) for v in out["handle_ns"].values()) + \
        sum(len(v) for v in out["untraced_handle_ns"].values())


def layers_churn(out, res):
    """The layers only a `churn` request reaches, from a replay that sent
    churn."""
    by_op = spans_by_op(out["trace"])
    churn = out["handle_ns"].get("churn", [])
    res.layer("daemon.handle_ms.churn",
              statistics.mean(churn) / 1e6 if churn else 0.0)
    res.layer("core.repair_ms",
              ratio(sum(by_op.get("core.repair", {}).values()) / 1e6,
                    out["repairs"]))
    res.layer("core.reverified_ratio",
              ratio(out["plans_reverified"],
                    out["plans_kept"] + out["plans_reverified"]))
    res.layer("plan.cache_evictions", ratio(out["evicted"], out["churns"]))


def layers_serve(out, load, res, churn):
    check_susbench(out, res)
    count_replay(out, res)
    by_op = spans_by_op(out["trace"])
    kinds = load["kinds"]
    handle = out["handle_ns"]
    untraced = out["untraced_handle_ns"]
    setup_ops = {0}
    parse = med_ms(by_op, "syntax.parse", setup_ops)
    res.layer("syntax.parse_ms", parse)
    res.layer("syntax.mb_per_s", ratio(out["source_bytes"] / 1e6,
                                       parse / 1e3))
    res.layer("hist.nodes", out["hist_nodes"])
    res.layer("hist.symbols", out["hist_symbols"])
    res.layer("core.verifier_build_ms",
              med_ms(by_op, "core.verifier_build", setup_ops))
    res.layer("plan.index_build_ms", med_ms(by_op, "plan.index_build",
                                            setup_ops))
    res.layer("serialize.snapshot_load_ms",
              med_ms(by_op, "serialize.snapshot_load", setup_ops))
    res.layer("serialize.snapshot_mb",
              out["snapshot_stats"].get("bytes", 0) / 1e6)

    # Counters cover all traced replica work (reads and churn), so they
    # are per traced request; span times below are per read.
    reads = max(1, out["reads"])
    common_counters(out["counters"], out["verifier_stats"], res,
                    ops=reads + out["churns"])
    vc = by_op.get("core.verify_client", {})
    rd = by_op.get("core.render", {})
    read_ops = [o for o in rd if o != 0]
    res.layer("core.verify_client_ms",
              ratio(sum(vc.get(o, 0) for o in read_ops) / 1e6, reads))
    res.layer("core.render_ms",
              ratio(sum(rd.get(o, 0) for o in read_ops) / 1e6, reads))
    res.layer("core.report_kb", out["report_bytes"] / 1024.0 / reads)

    def mean_of(names):
        vals = [v for k, lst in handle.items() if k in names for v in lst]
        return statistics.mean(vals) / 1e6 if vals else 0.0

    read_kinds = [k for k in kinds if k != "churn"]
    res.layer("daemon.handle_ms.verify",
              mean_of([k for k in read_kinds if k.startswith("verify")]))
    res.layer("daemon.handle_ms.stats", mean_of(["stats"]))
    ping = statistics.mean(load["ping_ns"]) / 1e6 if load["ping_ns"] else 0.0
    res.layer("daemon.ping_ms", ping)
    # Waiting: mean read request time under load minus the mean engine
    # time of the same mix minus the transport floor.
    per_kind = {k: statistics.mean(v) / 1e6 for k, v in handle.items() if v}
    counts = load["reads_by_kind"]
    eng_mean = ratio(sum(c * per_kind.get(k, 0.0) for k, c in counts.items()),
                     sum(counts.values()))
    res.layer("daemon.queue_ms", load["read_mean_ms"] - eng_mean - ping)
    res.layer("daemon.write_share", load["write_share"])
    if churn:
        layers_churn(out, res)
    idx = out.get("index")
    if idx and idx["lookups"]:
        res.layer("plan.index_pruned_share",
                  1 - idx["candidates"] / (idx["lookups"] * idx["size"]))
    # The part of a read's median wall time that no engine span covers:
    # socket, accept, pool hand-off and waiting.
    eng = [v for k, lst in handle.items() if k in read_kinds for v in lst]
    res.layer("residual_ms", res.metrics["request_ms.p50"][0] -
              (statistics.median(eng) / 1e6 if eng else 0.0))
    # Overhead: the traced phase's engine time against what the same
    # requests cost untraced (per-kind means, weighted by the traced mix).
    both = [k for k in handle if handle[k] and untraced.get(k)]
    res.layer("trace_overhead", ratio(
        sum(sum(handle[k]) for k in both),
        sum(len(handle[k]) * statistics.mean(untraced[k]) for k in both)) - 1)


def layers_monitor(out, res):
    check_susbench(out, res)
    ingest = [e - s for n, _o, _p, s, e in out["trace"]["spans"]
              if n == "monitor.ingest"]
    res.layer("monitor.fuse_ms", statistics.median(out["fuse_ns"]) / 1e6)
    res.layer("monitor.fused_states", out["fused_states"])
    res.layer("monitor.fused_share", ratio(out["fused_sessions"],
                                           out["sessions"]))
    res.layer("monitor.ingest_ms",
              statistics.mean(ingest) / 1e6 if ingest else 0.0)
    res.layer("monitor.blocked_share", ratio(out["pass_blocked"],
                                             out["pass_events"]))
    c = out["counters"]
    res.layer("support.pool_tasks", ratio(c["pool.tasks"], len(ingest)))
    res.layer("support.pool_steals", ratio(c["pool.steals"], len(ingest)))
    res.layer("residual_ms", res.metrics["batch_ms.p50"][0] -
              (percentile(ingest, 50) / 1e6 if ingest else 0.0))
    tb = out["traced_batch_ns"]
    res.layer("trace_overhead",
              ratio(statistics.mean(tb), statistics.mean(out["batch_ns"])) -
              1 if tb else 0.0)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

# The input properties whose measured share each run reports.
SHARES = ["compliance lookups that hit the cache", "bindings the index pruned",
          "monitor sessions fused", "requests that are writes",
          "events blocked"]

# The end-to-end metrics each workload reports, in report order.
E2E_METRICS = ["setup_s", "oneshot_s.p50", "oneshot_s.p90",
               "request_ms.p50", "request_ms.p99", "requests_per_s",
               "repair_ms.p50", "repair_ms.p90", "events_per_s",
               "batch_ms.p50", "batch_ms.p99", "peak_rss_mb", "error_rate"]

# End-to-end metrics of each workload (their own names) and the
# BENCHMARK.json name each one is reported under.
PRIMARY = {
    "cold_verify": {"latency_p50_ms": ("oneshot_s.p50", 1e3),
                    "latency_tail_ms": ("oneshot_s.p90", 1e3),
                    "throughput_per_s": ("ops_per_s", 1)},
    "warm_serve": {"latency_p50_ms": ("request_ms.p50", 1),
                   "latency_tail_ms": ("request_ms.p99", 1),
                   "throughput_per_s": ("requests_per_s", 1)},
    "churn_mixed": {"latency_p50_ms": ("repair_ms.p50", 1),
                    "latency_tail_ms": ("repair_ms.p90", 1),
                    "throughput_per_s": ("requests_per_s", 1)},
    "monitor_ingest": {"latency_p50_ms": ("batch_ms.p50", 1),
                       "latency_tail_ms": ("batch_ms.p99", 1),
                       "throughput_per_s": ("events_per_s", 1)},
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    res = Result()

    work_root = os.path.join(ROOT, ".bench_work")
    work = None
    try:
        tools = build()
        os.makedirs(work_root, exist_ok=True)
        work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                                dir=work_root)
        os.chdir(work)
        fn = {"cold_verify": cold_verify,
              "warm_serve": lambda *a: serve_common(*a, churn=False),
              "churn_mixed": lambda *a: serve_common(*a, churn=True),
              "monitor_ingest": monitor_ingest}[args.workload]
        fn(tools, work, args.seed, args.seconds, res, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        os.chdir(ROOT)
        if work:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(work_root)
            except OSError:
                pass  # another run is using it

    # Human-readable report.
    print("workload %s, seed %d, %.0f s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    res.put("error_rate", ratio(res.failed, res.attempted), "ratio",
            res.attempted)
    for name in sorted(res.metrics, key=lambda m: (
            E2E_METRICS.index(m) if m in E2E_METRICS else 99, m)):
        value, unit, n = res.metrics[name]
        print("  %-22s %14.4f %-5s n=%d" % (name, value, unit, n))
    for prop in SHARES:
        if prop in res.shares:
            share, base = res.shares[prop]
            print("  share: %-40s %.4f (%s)" % (prop, share, base))
        else:
            print("  share: %-40s n/a (not on this path)" % prop)
    for e in res.errors:
        print("  error: %s" % e)

    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": res.layers.get(m["name"], 0.0),
                                  "unit": m["unit"]}
            print("  layer %-36s %14.4f %s"
                  % (m["name"], metrics[m["name"]]["value"], m["unit"]))
    else:
        prim = PRIMARY[args.workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            if name in prim:
                src, scale = prim[name]
                value = res.metrics[src][0] * scale
            else:
                value = res.metrics[name][0]
            metrics[name] = {"value": value, "unit": m["unit"]}

    correct = res.failed == 0 and all(
        v["value"] == v["value"] and abs(v["value"]) != float("inf")
        for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": max(1, res.attempted),
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    sys.exit(main())
