//===- monitor/MonitorEngine.cpp - Sharded many-session monitor -----------===//

#include "monitor/MonitorEngine.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <array>
#include <cassert>

namespace sus {
namespace monitor {

namespace {
metrics::Counter &sessionsCounter() {
  static metrics::Counter &C = metrics::counter("monitor.sessions");
  return C;
}
metrics::Counter &eventsCounter() {
  static metrics::Counter &C = metrics::counter("monitor.events");
  return C;
}
metrics::Counter &blockedCounter() {
  static metrics::Counter &C = metrics::counter("monitor.blocked");
  return C;
}
metrics::Counter &unknownCounter() {
  static metrics::Counter &C = metrics::counter("monitor.unknown_events");
  return C;
}
} // namespace

MonitorEngine::MonitorEngine(const policy::PolicyRegistry &Registry,
                             const StringInterner &Interner, Options Opts)
    : Registry(Registry), Interner(Interner), Opts(Opts),
      Shards(Opts.Workers == 0 ? ThreadPool::defaultWorkers() : Opts.Workers) {
  if (Shards > 1)
    Pool = std::make_unique<ThreadPool>(Shards);
}

MonitorEngine::~MonitorEngine() = default;

MonitorEngine::SessionId
MonitorEngine::openSession(std::vector<hist::PolicyRef> Refs,
                           std::vector<hist::Event> Universe) {
  FusedCache &Cache = Opts.Cache ? *Opts.Cache : PrivateCache;
  std::shared_ptr<const FusedPolicyAutomaton> Dfa =
      Cache.fuse(Registry, Interner, std::move(Refs), std::move(Universe),
                 Opts.MaxFusedStates);
  Sessions.push_back({Dfa, SessionMonitor(*Dfa)});
  ++S.Sessions;
  ++S.FusedSessions;
  if (metrics::enabled())
    sessionsCounter().add();
  return static_cast<SessionId>(Sessions.size() - 1);
}

bool MonitorEngine::isViolated(SessionId Id) const {
  return Sessions[Id].Monitor.isViolated();
}

bool MonitorEngine::wouldAdmit(SessionId Id, const hist::Label &L) const {
  return Sessions[Id].Monitor.wouldAdmit(L);
}

bool MonitorEngine::advanceImpl(Session &Sess, const hist::Label &L,
                                uint64_t &Unknown) {
  if (L.isEvent() && Sess.FusedDfa->eventIndexOf(L.asEvent()) ==
                         FusedPolicyAutomaton::NoEvent)
    ++Unknown; // Admitted as a self-loop; see the closure contract.
  return Sess.Monitor.advance(L);
}

bool MonitorEngine::advance(SessionId Id, const hist::Label &L) {
  uint64_t Unknown = 0;
  bool Valid = advanceImpl(Sessions[Id], L, Unknown);
  ++S.Events;
  S.Blocked += Valid ? 0 : 1;
  S.UnknownEvents += Unknown;
  if (metrics::enabled()) {
    eventsCounter().add();
    if (!Valid)
      blockedCounter().add();
    if (Unknown)
      unknownCounter().add(Unknown);
  }
  return Valid;
}

void MonitorEngine::ingest(const std::vector<BatchItem> &Batch,
                           std::vector<uint8_t> *Decisions) {
  trace::Span Span("monitor.ingest", "monitor");
  Span.count("items", static_cast<int64_t>(Batch.size()));
  if (Decisions)
    Decisions->assign(Batch.size(), 0);

  // {events, blocked, unknown} per shard, merged after the barrier.
  std::vector<std::array<uint64_t, 3>> Local(Shards, {0, 0, 0});

  auto RunShard = [&](unsigned Shard) {
    std::array<uint64_t, 3> &Acc = Local[Shard];
    for (size_t I = 0; I != Batch.size(); ++I) {
      const BatchItem &Item = Batch[I];
      if (Item.Session % Shards != Shard)
        continue;
      assert(Item.Session < Sessions.size() && "unopened session in batch");
      bool Valid = advanceImpl(Sessions[Item.Session], Item.L, Acc[2]);
      ++Acc[0];
      Acc[1] += Valid ? 0 : 1;
      if (Decisions)
        (*Decisions)[I] = Valid ? 1 : 0;
    }
  };

  if (Pool) {
    for (unsigned Shard = 0; Shard != Shards; ++Shard)
      // Work stealing may execute this on any worker; the shard id must
      // come from the capture, not the executing WorkerId.
      Pool->submit([&RunShard, Shard](unsigned) { RunShard(Shard); });
    Pool->waitIdle();
  } else {
    RunShard(0);
  }

  uint64_t Events = 0, Blocked = 0, Unknown = 0;
  for (const std::array<uint64_t, 3> &Acc : Local) {
    Events += Acc[0];
    Blocked += Acc[1];
    Unknown += Acc[2];
  }
  S.Events += Events;
  S.Blocked += Blocked;
  S.UnknownEvents += Unknown;
  if (metrics::enabled()) {
    eventsCounter().add(Events);
    if (Blocked)
      blockedCounter().add(Blocked);
    if (Unknown)
      unknownCounter().add(Unknown);
  }
  Span.count("blocked", static_cast<int64_t>(Blocked));
}

} // namespace monitor
} // namespace sus
