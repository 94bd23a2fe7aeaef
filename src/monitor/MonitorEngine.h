//===- monitor/MonitorEngine.h - Sharded many-session monitor ---*- C++ -*-===//
///
/// \file
/// Runs many concurrent sessions against fused policy DFAs, sharded over
/// the work-stealing ThreadPool. Every session runs a SessionMonitor over
/// a fusion shared through the FusedCache. Fusion never fails: no
/// policy-set width or product size is refused, and past the memo cap a
/// session steps its per-policy DFAs directly, with the same verdicts.
/// net::Interpreter runs the same SessionMonitor, one per component.
///
/// Batched ingestion (`ingest`) partitions a label batch by
/// `session % shards`: each shard task consumes its sessions' labels in
/// batch order, so per-session label order is preserved while distinct
/// sessions advance in parallel. Decisions are written at disjoint
/// indices, so the result is deterministic and identical to sequential
/// processing.
///
/// Closure contract: every event a session can fire must be inside the
/// universe its session was opened with (see Fused.h). Out-of-universe
/// events are admitted with a self-loop in release builds (blocking could
/// be a wrong verdict) and counted under "monitor.unknown_events".
///
//===----------------------------------------------------------------------===//

#ifndef SUS_MONITOR_MONITORENGINE_H
#define SUS_MONITOR_MONITORENGINE_H

#include "monitor/Fused.h"
#include "monitor/SessionMonitor.h"
#include "support/ThreadPool.h"

#include <memory>
#include <vector>

namespace sus {
namespace monitor {

/// Monitors many sessions, each against its own fused policy set.
class MonitorEngine {
public:
  struct Options {
    /// Shard width for batched ingestion; 0 = ThreadPool::defaultWorkers().
    /// 1 keeps everything on the calling thread (no pool is spawned).
    unsigned Workers = 1;

    /// Optional fused-DFA cache shared with other engines; null = fuse
    /// privately per distinct fingerprint.
    FusedCache *Cache = nullptr;

    /// Memo cap (materialized product states) of the automata this
    /// engine fuses; a cache hit keeps the cap it was fused with.
    uint64_t MaxFusedStates = DefaultMaxFusedStates;
  };

  using SessionId = uint32_t;

  /// One label addressed to one session inside a batch.
  struct BatchItem {
    SessionId Session;
    hist::Label L;
  };

  MonitorEngine(const policy::PolicyRegistry &Registry,
                const StringInterner &Interner, Options Opts);
  MonitorEngine(const policy::PolicyRegistry &Registry,
                const StringInterner &Interner)
      : MonitorEngine(Registry, Interner, Options()) {}
  ~MonitorEngine();

  MonitorEngine(const MonitorEngine &) = delete;
  MonitorEngine &operator=(const MonitorEngine &) = delete;

  /// Opens a session whose policies are \p Refs over event universe
  /// \p Universe (the closure contract above), fusing via the shared
  /// cache when configured. Returns the new session's id.
  SessionId openSession(std::vector<hist::PolicyRef> Refs,
                        std::vector<hist::Event> Universe);

  size_t numSessions() const { return Sessions.size(); }

  /// True once some label violated \p S's policies (violations latch).
  bool isViolated(SessionId S) const;

  /// Would appending \p L keep session \p S valid? (No state change.)
  bool wouldAdmit(SessionId S, const hist::Label &L) const;

  /// Appends \p L to session \p S; returns false when the session is
  /// (now) violated.
  bool advance(SessionId S, const hist::Label &L);

  /// Processes \p Batch, sharding sessions across the pool. When
  /// \p Decisions is non-null it is resized to the batch size and
  /// Decisions[i] is set to 1 iff item i left its session valid (the
  /// value advance() would have returned). Blocks until the whole batch
  /// is processed; per-session order follows batch order.
  void ingest(const std::vector<BatchItem> &Batch,
              std::vector<uint8_t> *Decisions = nullptr);

  struct Stats {
    uint64_t Sessions = 0;        ///< openSession calls.
    uint64_t FusedSessions = 0;   ///< ... fused (all of them).
    uint64_t Events = 0;          ///< Labels processed (advance + ingest).
    uint64_t Blocked = 0;         ///< ... that reported a violation.
    uint64_t UnknownEvents = 0;   ///< Out-of-universe events admitted.
  };
  Stats stats() const { return S; }

private:
  struct Session {
    /// Keeps the fused DFA alive (sessions may outlive cache entries).
    std::shared_ptr<const FusedPolicyAutomaton> FusedDfa;
    SessionMonitor Monitor;
  };

  /// advance() body without stats accounting (shared with ingest shards).
  bool advanceImpl(Session &Sess, const hist::Label &L, uint64_t &Unknown);

  // Concurrency discipline (DESIGN.md §11): the engine is externally
  // synchronized — one thread calls its methods — and ingest() is the
  // only internal fan-out. Its shard tasks partition work by
  // `session % Shards`, so each Session element is touched by exactly
  // one worker, results land at disjoint Decisions indices, and each
  // shard accumulates private counters that the calling thread merges
  // into S only after Pool->waitIdle() — confinement, not locks, is the
  // safety argument, and the pool's join edge is the publication point.
  // No engine state needs a guard; the shared FusedCache locks itself,
  // and shards that share an automaton meet only in its product memo,
  // which publishes rows lock-free and takes its own leaf lock on a miss.
  const policy::PolicyRegistry &Registry;
  const StringInterner &Interner;
  Options Opts;
  unsigned Shards; ///< Resolved shard count (>= 1).
  std::unique_ptr<ThreadPool> Pool; ///< Null when Shards == 1.
  FusedCache PrivateCache;          ///< Used when Opts.Cache is null.
  std::vector<Session> Sessions;    ///< Sharded by index during ingest().
  Stats S;                          ///< Calling thread only.
};

} // namespace monitor
} // namespace sus

#endif // SUS_MONITOR_MONITORENGINE_H
