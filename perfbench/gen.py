"""Seeded known-answer generator for the end-to-end benchmark.

Everything the program under test receives is written here, together with
the answer it must give, computed independently of the program:

* ``repo.sus``: about 10k services in two kinds of family.
  - Channel families (the B9 shape): one or two good responders that
    answer on the family's ack channel, and decoys that accept the
    request but answer on a dead channel (never compliant).
  - Hotel families after the paper's Fig. 2: a broker that opens a nested
    session to hotels emitting ``sgn/p/ta`` events; some hotels can also
    send ``Del`` and are never compliant.  Their clients are framed by
    seeded instantiations of Fig. 1's usage automaton ``phi(bl, p, t)``.
  Every count is fixed, so every seed costs the same work; the seed picks
  names, layout, which families clients use and the policy parameters.
* the known answer: per client, the set of valid plans, and the exit
  code of a whole-file verification.
* ``monitor.sus`` + ``monitor.trace``: threshold usage automata, the
  sessions' policy sets and one pass of batched events with the
  admit/block decision of every event.
"""

import random

# Repository shape (fixed for every seed).
CHANNEL_FAMILIES = 980
CHANNEL_FAMILY_SIZE = 10
TWO_GOOD_FAMILIES = 245          # families with a second good responder
HOTEL_FAMILIES = 20
HOTELS_PER_FAMILY = 9             # plus one broker each
DEVIANT_HOTELS = 2                # per family: may send Del, never compliant
HOTEL_CLIENTS = 2
ROUNDS = 3                        # request/ack rounds per channel session

# Monitor shape (fixed for every seed).
MON_VALUES = 64                   # event values 0..63
MON_THRESHOLDS = range(32, 64)    # 32 thresholds per policy kind
MON_SESSIONS = 1024
MON_NARROW_SETS = 8               # distinct policy sets that fuse ...
MON_NARROW_SIZE = 12              # ... of this many policies
MON_WIDE_SETS = 4                 # distinct sets over the 32-policy cap ...
MON_WIDE_SIZE = 48                # ... that run on the legacy checker
MON_WIDE_SHARE = 8                # one session in 8 holds a wide set
MON_SHARDS = 4                    # wide sessions balance over 4 shards
MON_EVENTS_PER_SESSION = 128
MON_VIOLATING_SHARE = 4           # one session in 4 violates once
MON_BATCH = 16384                 # events per ingest call; large enough
                                  # that one stall of a shard thread does
                                  # not dominate a batch


class Repository:
    """The generated .sus text plus its known answer."""

    def __init__(self, text, clients, expected_exit, scan_bindings):
        self.text = text
        # client name -> sorted list of valid plans; a plan is a sorted
        # tuple of (request id, service) pairs.
        self.clients = clients
        self.expected_exit = expected_exit
        # Bindings a full repository scan tries for all clients: every
        # service for the first request site, then again for the second
        # site under each compliant candidate of the first.
        self.scan_bindings = scan_bindings


def plan_key(bindings):
    return tuple(sorted(bindings))


def make_repository(seed):
    rng = random.Random(seed * 7919 + 1)
    decls = []          # service declarations, shuffled below
    next_req = [1]

    def new_req():
        r = next_req[0]
        next_req[0] += 1
        return r

    # Channel families.
    two_good = set(rng.sample(range(CHANNEL_FAMILIES), TWO_GOOD_FAMILIES))
    goods = {}
    for i in range(CHANNEL_FAMILIES):
        q, a = "f%dq" % i, "f%da" % i
        n_good = 2 if i in two_good else 1
        goods[i] = ["f%dg%d" % (i, k) for k in range(n_good)]
        for name in goods[i]:
            decls.append("service %s { mu h . %s? . %s! . h }" % (name, q, a))
        for k in range(CHANNEL_FAMILY_SIZE - n_good):
            decls.append("service f%dd%d { mu h . %s? . f%dx%d! . h }"
                         % (i, k, q, i, k))

    # Hotel families: hotel h has (name, price, rating, compliant).
    hotels = {}
    broker_req = {}
    for j in range(HOTEL_FAMILIES):
        rq = new_req()
        broker_req[j] = rq
        decls.append(
            "service b%d { hq%d? . (open %d { hi%d! . (hk%d? + hu%d?) }; "
            "(hc%d! . hp%d? <+> hn%d!)) }" % (j, j, rq, j, j, j, j, j, j))
        deviant = set(rng.sample(range(HOTELS_PER_FAMILY), DEVIANT_HOTELS))
        hotels[j] = []
        for m in range(HOTELS_PER_FAMILY):
            name = "h%dx%d" % (j, m)
            price = rng.randrange(30, 100)
            rating = rng.randrange(50, 110)
            reply = "hk%d! <+> hu%d!" % (j, j)
            if m in deviant:
                reply += " <+> hd%d!" % j
            decls.append("service %s { %%sgn(%s); %%p(%d); %%ta(%d); "
                         "hi%d? . (%s) }" % (name, name, price, rating, j,
                                             reply))
            hotels[j].append((name, price, rating, m not in deviant))

    rng.shuffle(decls)
    lines = ["# Generated benchmark repository (seed %d)." % seed, "",
             "policy phi(bl: set, p: int, t: int) {",
             "  start q1;", "  offending q6;",
             "  q1 -> q2 on sgn(x) when x not in bl;",
             "  q1 -> q6 on sgn(x) when x in bl;",
             "  q2 -> q3 on p(y) when y <= p;",
             "  q2 -> q4 on p(y) when y > p;",
             "  q4 -> q5 on ta(z) when z >= t;",
             "  q4 -> q6 on ta(z) when z < t;",
             "  q3 -> q3 on *;", "  q5 -> q5 on *;", "  q6 -> q6 on *;",
             "}", ""]
    lines += decls
    lines.append("")

    clients = {}
    scan = 0
    n_services = len(decls)
    # Channel clients: c1 talks to c0's two families in the other order,
    # so its request bodies are memo hits.
    fa, fb = rng.sample(range(CHANNEL_FAMILIES), 2)
    for c, (f1, f2) in enumerate(((fa, fb), (fb, fa))):
        r1, r2 = new_req(), new_req()
        body1 = " . ".join("f%dq! . f%da?" % (f1, f1) for _ in range(ROUNDS))
        body2 = " . ".join("f%dq! . f%da?" % (f2, f2) for _ in range(ROUNDS))
        name = "c%d" % c
        lines.append("client %s { open %d { %s } ; open %d { %s } }"
                     % (name, r1, body1, r2, body2))
        clients[name] = sorted(plan_key([(r1, g1), (r2, g2)])
                               for g1 in goods[f1] for g2 in goods[f2])
        scan += n_services * (1 + len(goods[f1]))

    # Hotel clients share one family (the same request bodies, so the
    # second client's compliance checks are memo hits). s0 blacklists
    # every compliant hotel and has no valid plan, so a whole-file
    # verification exits 1; s1 always has at least one.
    j = rng.randrange(HOTEL_FAMILIES)
    compliant = [h for h in hotels[j] if h[3]]
    for c in range(HOTEL_CLIENTS):
        p = rng.randrange(30, 100)
        t = rng.randrange(50, 110)
        if c == 0:
            bl = [h[0] for h in compliant]
        else:
            bl = [h[0] for h in rng.sample(compliant, 2)]
            keep = [h for h in compliant if h[0] not in bl]
            p = max(p, rng.choice(keep)[1])
        r = new_req()
        name = "s%d" % c
        lines.append(
            "client %s { open %d @ phi({%s},%d,%d) "
            "{ hq%d! . (hc%d? . hp%d! + hn%d?) } }"
            % (name, r, ",".join(sorted(bl)), p, t, j, j, j, j))
        valid = [h for h in compliant
                 if h[0] not in bl and (h[1] <= p or h[2] >= t)]
        clients[name] = sorted(plan_key([(r, "b%d" % j),
                                         (broker_req[j], h[0])])
                               for h in valid)
        scan += n_services * 2  # one broker is compliant

    expected_exit = 0 if all(clients.values()) else 1
    return Repository("\n".join(lines) + "\n", clients, expected_exit, scan)


class MonitorWorkload:
    """Policies, sessions and one pass of events with known decisions."""

    def __init__(self, policy_text, sessions, events, decisions):
        self.policy_text = policy_text
        self.sessions = sessions     # list of [(kind, threshold)]
        self.events = events         # list of (session, kind, value)
        self.decisions = decisions   # list of 0/1

    def write_trace(self, path):
        with open(path, "w") as f:
            f.write("sessions %d\n" % len(self.sessions))
            for pols in self.sessions:
                f.write(" ".join("%s:%d" % p for p in pols) + "\n")
            f.write("events %d batch %d values %d\n"
                    % (len(self.events), MON_BATCH, MON_VALUES))
            for (s, k, v), d in zip(self.events, self.decisions):
                f.write("%d %s %d %d\n" % (s, k, v, d))


MONITOR_POLICIES = """\
# Threshold usage automata: two consecutive events of a kind whose value
# exceeds the threshold offend; a value at or below it resets.
policy thr(t: int) {
  start a;
  offending bad;
  a -> b on use(v) when v > t;
  b -> a on use(v) when v <= t;
  b -> bad on use(v) when v > t;
}
policy cap(t: int) {
  start a;
  offending bad;
  a -> b on put(v) when v > t;
  b -> a on put(v) when v <= t;
  b -> bad on put(v) when v > t;
}
"""


def make_monitor(seed):
    rng = random.Random(seed * 104729 + 3)
    pool = [("thr", t) for t in MON_THRESHOLDS] + \
           [("cap", t) for t in MON_THRESHOLDS]
    narrow = [sorted(rng.sample(pool, MON_NARROW_SIZE))
              for _ in range(MON_NARROW_SETS)]
    wide = [sorted(rng.sample(pool, MON_WIDE_SIZE))
            for _ in range(MON_WIDE_SETS)]

    # Wide sessions are spread evenly over the engine's shards (session
    # s runs on shard s % shards), so every seed balances alike. Balanced
    # over 4 residues, they are balanced over 2 and 1 shards too.
    wide_ids = set()
    for k in range(MON_SHARDS):
        on_shard = range(k, MON_SESSIONS, MON_SHARDS)
        wide_ids.update(rng.sample(on_shard, len(on_shard) // MON_WIDE_SHARE))
    sessions = [rng.choice(wide if s in wide_ids else narrow)
                for s in range(MON_SESSIONS)]

    # Per session: the minimum threshold per kind decides violation (the
    # lowest threshold offends first). Events stay at or below it except
    # for isolated spikes. One session in MON_VIOLATING_SHARE of each kind
    # (narrow, wide) gets a planned pair of consecutive spikes at the same
    # point of its stream, after which every later event is blocked; so
    # every seed blocks the same amount of work.
    violate_at = MON_EVENTS_PER_SESSION * 3 // 4
    rank = {True: 0, False: 0}
    streams = []
    for s, pols in enumerate(sessions):
        lo = {"use": min([t for k, t in pols if k == "thr"] or [MON_VALUES]),
              "put": min([t for k, t in pols if k == "cap"] or [MON_VALUES])}
        kind = "use" if lo["use"] < MON_VALUES - 1 else "put"
        is_wide = s in wide_ids
        violates = rank[is_wide] % MON_VIOLATING_SHARE == 0 and \
            lo[kind] < MON_VALUES - 1
        rank[is_wide] += 1
        prev_spike = {"use": False, "put": False}
        stream, violated = [], False
        for i in range(MON_EVENTS_PER_SESSION):
            if violates and i in (violate_at, violate_at + 1):
                k = kind
                v = rng.randrange(lo[k] + 1, MON_VALUES)
            else:
                k = rng.choice(("use", "put"))
                if not prev_spike[k] and lo[k] < MON_VALUES - 1 and \
                        rng.random() < 0.2:
                    v = rng.randrange(lo[k] + 1, MON_VALUES)
                else:
                    v = rng.randrange(0, min(lo[k], MON_VALUES - 1) + 1)
            spike = v > lo[k]
            if spike and prev_spike[k]:
                violated = True
            prev_spike[k] = spike
            stream.append((k, v, 0 if violated else 1))
        streams.append(stream)

    # Interleave sessions in a seeded order that keeps each session's
    # events in sequence.
    events, decisions = [], []
    cursors = [0] * len(streams)
    live = list(range(len(streams)))
    while live:
        idx = rng.randrange(len(live))
        s = live[idx]
        k, v, d = streams[s][cursors[s]]
        events.append((s, k, v))
        decisions.append(d)
        cursors[s] += 1
        if cursors[s] == len(streams[s]):
            live[idx] = live[-1]
            live.pop()
    return MonitorWorkload(MONITOR_POLICIES, sessions, events, decisions)
