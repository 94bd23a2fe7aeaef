#!/usr/bin/env python3
"""End-to-end test for the resident verification daemon (susd).

Drives the shipped binaries the way a user would and asserts the PR's
headline contracts:

  1. Warm restart equivalence: a one-shot verify that loads a snapshot
     must print byte-for-byte the output of the run that saved it.
  2. Version/corruption rejection: a snapshot with a bumped format
     version, a truncated tail, or a flipped bit must be rejected with
     exit 2 and a one-line diagnostic (never a partial load or a crash).
  3. Concurrent serving: N threads x M `susc --connect` verify requests
     against one daemon must all return the bytes and exit code of the
     one-shot `susd --warm FILE` (after the first request, these answers
     come from the report memo), and so must a verify after a churn
     request; a shutdown request must stop the daemon with exit 0.
  4. Silent clients: on a one-worker daemon, a connection that never
     sends its request line must not block a later ping past the
     daemon's request read deadline, nor the shutdown.
  5. Crash-safe save: a daemon killed with SIGKILL at a few delays into
     a `snapshot` request leaves the old or the new snapshot at the
     target path. A restart with --snapshot either loads it or rejects
     it cleanly with exit 2, and then answers verify exactly like
     `susd --warm FILE`.

Usage: daemon_e2e.py <susd> <susc> <file.sus>
"""

import os
import socket
import subprocess
import sys
import tempfile
import threading
import time

# The version field sits after the 8-byte magic (DESIGN.md #13).
VERSION_OFFSET = 8

# RequestReadTimeoutMs in src/daemon/Protocol.h, and the slack a loaded
# machine gets on top of it.
READ_TIMEOUT_S = 5
SLACK_S = 10


def run(argv, **kwargs):
    return subprocess.run(argv, capture_output=True, text=False,
                          timeout=120, **kwargs)


def fail(msg):
    print("daemon_e2e: FAIL:", msg)
    sys.exit(1)


def expect_rejected(susd, sus_file, snap_path, what, needle=b""):
    r = run([susd, "--snapshot", snap_path, "--warm", sus_file])
    if r.returncode != 2:
        fail("%s: expected exit 2, got %d\nstderr: %s"
             % (what, r.returncode, r.stderr.decode(errors="replace")))
    if b"snapshot rejected" not in r.stderr:
        fail("%s: no rejection diagnostic\nstderr: %s"
             % (what, r.stderr.decode(errors="replace")))
    if needle and needle not in r.stderr:
        fail("%s: diagnostic does not mention %r\nstderr: %s"
             % (what, needle, r.stderr.decode(errors="replace")))


def check_snapshot_restart(susd, sus_file, tmp):
    snap = os.path.join(tmp, "cache.snap")
    cold = run([susd, "--warm", "--save-snapshot", snap, sus_file])
    if cold.returncode != 0:
        fail("cold warm-up failed: %s" % cold.stderr.decode(errors="replace"))
    warm = run([susd, "--snapshot", snap, "--warm", sus_file])
    if warm.returncode != 0:
        fail("warm restart failed: %s" % warm.stderr.decode(errors="replace"))
    if warm.stdout != cold.stdout:
        fail("warm restart output differs from the cold run\n"
             "cold %d bytes, warm %d bytes" %
             (len(cold.stdout), len(warm.stdout)))
    if b"snapshot loaded" not in warm.stderr:
        fail("warm restart did not report the loaded snapshot")
    print("daemon_e2e: warm restart is byte-identical")

    blob = open(snap, "rb").read()

    bumped = bytearray(blob)
    bumped[VERSION_OFFSET] += 1
    bumped_path = os.path.join(tmp, "bumped.snap")
    open(bumped_path, "wb").write(bytes(bumped))
    expect_rejected(susd, sus_file, bumped_path,
                    "version-bumped snapshot", b"version")

    trunc_path = os.path.join(tmp, "trunc.snap")
    open(trunc_path, "wb").write(blob[:len(blob) // 2])
    expect_rejected(susd, sus_file, trunc_path, "truncated snapshot")

    flipped = bytearray(blob)
    flipped[len(flipped) * 2 // 3] ^= 0x04
    flip_path = os.path.join(tmp, "flip.snap")
    open(flip_path, "wb").write(bytes(flipped))
    expect_rejected(susd, sus_file, flip_path, "bit-flipped snapshot")
    print("daemon_e2e: bad snapshots rejected with exit 2")


def wait_for_socket(path, proc, deadline_s=30):
    end = time.time() + deadline_s
    while time.time() < end:
        if proc.poll() is not None:
            fail("susd exited early with code %d" % proc.returncode)
        if os.path.exists(path):
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(path)
                s.close()
                return
            except OSError:
                pass
        time.sleep(0.05)
    fail("susd socket %s never came up" % path)


def check_daemon(susd, susc, sus_file, tmp):
    cold = run([susd, "--warm", sus_file])
    if b"== client" not in cold.stdout:
        fail("one-shot verify output looks wrong: %r" % cold.stdout[:80])
    sock = os.path.join(tmp, "susd.sock")
    daemon = subprocess.Popen(
        [susd, "--listen", sock, "--workers", "4", sus_file],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        wait_for_socket(sock, daemon)

        results = []
        lock = threading.Lock()

        def client(n):
            for _ in range(3):
                r = run([susc, "--connect", sock, "verify"])
                with lock:
                    results.append((r.returncode, r.stdout))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if len(results) != 12:
            fail("expected 12 client runs, got %d" % len(results))
        for code, body in results:
            if code != cold.returncode or body != cold.stdout:
                fail("a served verify (exit %d, %d bytes) differs from the "
                     "one-shot run (exit %d, %d bytes)"
                     % (code, len(body), cold.returncode, len(cold.stdout)))
        print("daemon_e2e: 12 concurrent verifies, the one-shot's bytes")

        churn = run([susc, "--connect", sock, "churn", "rounds=1"])
        if churn.returncode != 0:
            fail("churn request failed with %d" % churn.returncode)
        after = run([susc, "--connect", sock, "verify"])
        if after.returncode != cold.returncode or after.stdout != cold.stdout:
            fail("verify after churn differs from the one-shot run")
        print("daemon_e2e: verify after churn, the one-shot's bytes")

        stats = run([susc, "--connect", sock, "stats"])
        if stats.returncode != 0 or b"cache:" not in stats.stdout:
            fail("stats verb failed: %s" % stats.stdout.decode(errors="replace"))

        bad = run([susc, "--connect", sock, "frobnicate"])
        if bad.returncode != 2:
            fail("unknown verb: expected exit 2, got %d" % bad.returncode)

        down = run([susc, "--connect", sock, "shutdown"])
        if down.returncode != 0:
            fail("shutdown request failed with %d" % down.returncode)
        code = daemon.wait(timeout=30)
        if code != 0:
            fail("daemon exit code %d after shutdown" % code)
        print("daemon_e2e: clean shutdown")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def check_silent_client(susd, susc, sus_file, tmp):
    sock = os.path.join(tmp, "silent.sock")
    daemon = subprocess.Popen(
        [susd, "--listen", sock, "--workers", "1", sus_file],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    silent = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        wait_for_socket(sock, daemon)
        # Holds the only worker until the daemon's read deadline.
        silent.connect(sock)
        start = time.time()
        try:
            ping = subprocess.run([susc, "--connect", sock, "ping"],
                                  capture_output=True,
                                  timeout=READ_TIMEOUT_S + SLACK_S)
        except subprocess.TimeoutExpired:
            fail("ping behind a silent client got no answer within %d s"
                 % (READ_TIMEOUT_S + SLACK_S))
        if ping.returncode != 0 or ping.stdout != b"pong\n":
            fail("ping behind a silent client: exit %d, %r"
                 % (ping.returncode, ping.stdout))
        silent.settimeout(SLACK_S)
        answer = silent.recv(4096)
        if not answer.startswith(b"sus/1 2 ") or b"timed out" not in answer:
            fail("the silent client got %r, not a timeout error" % answer)
        print("daemon_e2e: silent client timed out; ping answered after "
              "%.1f s" % (time.time() - start))

        try:
            down = run([susc, "--connect", sock, "shutdown"])
            code = daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            fail("shutdown behind a silent client hung")
        if down.returncode != 0 or code != 0:
            fail("shutdown: request exit %d, daemon exit %d"
                 % (down.returncode, code))
    finally:
        silent.close()
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


# Seconds between sending `snapshot` and the SIGKILL: before the save
# starts, inside it, and after it.
KILL_DELAYS_S = (0.0, 0.001, 0.003, 0.01, 0.03, 0.1)


def check_crash_during_save(susd, sus_file, tmp):
    expected = run([susd, "--warm", sus_file])
    snap = os.path.join(tmp, "crash.snap")
    # The old snapshot comes from a cold session; the daemon below warms
    # up first, so the snapshot it saves is a different (larger) one.
    cut = run([susd, "--save-snapshot", snap, sus_file])
    if not os.path.exists(snap):
        fail("cutting the old snapshot failed (exit %d): %s"
             % (cut.returncode, cut.stderr.decode(errors="replace")))
    old = open(snap, "rb").read()
    sock = os.path.join(tmp, "crash.sock")
    seen = {"old": 0, "new": 0, "rejected": 0}
    for delay in KILL_DELAYS_S:
        open(snap, "wb").write(old)
        if os.path.exists(sock):
            os.unlink(sock)
        daemon = subprocess.Popen(
            [susd, "--warm", "--listen", sock, sus_file],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            wait_for_socket(sock, daemon)
            conn.connect(sock)
            conn.sendall(b"sus/1 snapshot file=" + snap.encode() + b"\n")
            time.sleep(delay)
        finally:
            daemon.kill()
            daemon.wait()
            conn.close()

        after = open(snap, "rb").read()
        restart = run([susd, "--snapshot", snap, "--warm", sus_file])
        if restart.returncode == 2:
            if b"snapshot rejected" not in restart.stderr:
                fail("kill after %.3f s: exit 2 without a rejection "
                     "diagnostic\nstderr: %s"
                     % (delay, restart.stderr.decode(errors="replace")))
            seen["rejected"] += 1
            restart = run([susd, "--warm", sus_file])
        else:
            if b"snapshot loaded" not in restart.stderr:
                fail("kill after %.3f s: restart did not load the snapshot"
                     "\nstderr: %s"
                     % (delay, restart.stderr.decode(errors="replace")))
            seen["old" if after == old else "new"] += 1
        if (restart.returncode != expected.returncode or
                restart.stdout != expected.stdout):
            fail("kill after %.3f s: the restarted daemon (exit %d, %d "
                 "bytes) differs from susd --warm (exit %d, %d bytes)"
                 % (delay, restart.returncode, len(restart.stdout),
                    expected.returncode, len(expected.stdout)))
    # A kill inside a save may leave its temp file behind; the next save
    # that succeeds must sweep it away. One such file is planted under the
    # last killed daemon's pid, so the sweep runs even when no kill landed
    # between the temp file's creation and its rename.
    open(os.path.join(tmp, "crash.snap.tmp.%d.0" % daemon.pid), "wb").close()
    killed = [f for f in os.listdir(tmp) if f.startswith("crash.snap.tmp.")]
    resave = run([susd, "--save-snapshot", snap, sus_file])
    if resave.returncode != 0:
        fail("the save after the kill loop failed (exit %d): %s"
             % (resave.returncode, resave.stderr.decode(errors="replace")))
    stray = [f for f in os.listdir(tmp) if f.startswith("crash.snap.tmp.")]
    if stray:
        fail("a successful save left stale temp files behind: %s"
             % ", ".join(sorted(stray)))
    print("daemon_e2e: SIGKILL during snapshot: %d old, %d new, %d rejected;"
          " every restart answered like susd --warm; the next save removed"
          " %d stray temp files"
          % (seen["old"], seen["new"], seen["rejected"], len(killed)))


def main():
    if len(sys.argv) != 4:
        fail("usage: daemon_e2e.py <susd> <susc> <file.sus>")
    susd, susc, sus_file = sys.argv[1:]
    # AF_UNIX sun_path is ~108 bytes; keep the socket under /tmp, not the
    # (potentially deep) build tree.
    with tempfile.TemporaryDirectory(prefix="susd-e2e-", dir="/tmp") as tmp:
        check_snapshot_restart(susd, sus_file, tmp)
        check_daemon(susd, susc, sus_file, tmp)
        check_silent_client(susd, susc, sus_file, tmp)
        check_crash_during_save(susd, sus_file, tmp)
    print("daemon_e2e: all checks passed")


if __name__ == "__main__":
    main()
