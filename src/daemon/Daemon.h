//===- daemon/Daemon.h - The resident verification engine -------*- C++ -*-===//
///
/// \file
/// susd's core: an Engine keeps one core::Session resident — the
/// HistContext, repository, policy registry, shared VerifierCache,
/// ServiceIndex and a Verifier — and serves protocol requests against it,
/// so repeat verifications pay memo-table lookups instead of re-parsing
/// and re-exploring (DESIGN.md §13). The requests themselves (verify,
/// churn, snapshot) are the Session's, shared with susc; the Engine adds
/// the session lock, parameter decoding, governor arming and dispatch.
///
/// Concurrency model: connections are accepted on the main thread and
/// handed to a ThreadPool; each request then takes the Engine's session
/// lock for its whole handling. The HistContext is single-threaded by
/// design, so requests serialize at the engine while socket I/O overlaps;
/// each verification runs serially on the handling thread.
///
/// Per-request resource governance: each request names a tenant and may
/// ask for its own deadline/budgets; the TenantBudgetTable min-combines
/// them and a fresh governor is armed on the resident verifier for just
/// that request (trips are Inconclusive exit 3, never cached).
///
//===----------------------------------------------------------------------===//

#ifndef SUS_DAEMON_DAEMON_H
#define SUS_DAEMON_DAEMON_H

#include "core/Session.h"
#include "daemon/Protocol.h"
#include "support/Sync.h"
#include "support/TenantBudget.h"

#include <atomic>
#include <memory>
#include <ostream>
#include <string>

namespace sus {
namespace daemon {

struct EngineOptions {
  bool UseIndex = true;
  TenantBudgetTable Tenants;
};

/// The resident session. Create once, then handle() any number of
/// requests (thread-safe; requests serialize on the session lock).
class Engine {
public:
  /// Parses \p Source and builds the resident verifier. Null (with a
  /// one-line diagnostic in \p Err) when the file does not parse.
  static std::unique_ptr<Engine> create(std::string Source,
                                        std::string FileName,
                                        EngineOptions Opts, std::string &Err);

  /// Serves one request. Never throws; unknown verbs and bad parameters
  /// come back as exit-2 responses.
  Response handle(const Request &R);

  /// Loads a snapshot into the resident cache (and warm-starts the index
  /// from its persisted summaries). False with a diagnostic on a corrupt,
  /// wrong-version or mismatched snapshot — the cache is left untouched.
  bool loadSnapshotBytes(const std::string &Bytes, std::string &Err,
                         core::SnapshotStats *Stats = nullptr);

  /// Serializes the resident cache (building the index first if needed).
  std::string saveSnapshotBytes(core::SnapshotStats *Stats = nullptr);

  /// Verifies every client (the susc verify loop), warming the memo
  /// tables. Returns the susc exit code (0/1/3).
  int warmAll(std::ostream &OS);

  /// True once a shutdown request was served: the accept loop exits.
  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_relaxed);
  }

private:
  Engine(EngineOptions Opts) : Opts(std::move(Opts)) {}

  Response verify(const Request &R) SUS_REQUIRES(M);
  Response lint(const Request &R) SUS_REQUIRES(M);
  Response churn(const Request &R) SUS_REQUIRES(M);
  Response snapshot(const Request &R) SUS_REQUIRES(M);
  Response stats(const Request &R) SUS_REQUIRES(M);

  /// Arms the per-request governor (tenant budget min request override)
  /// on the resident verifier. Returns false (exit-2 response in \p Resp)
  /// on malformed numeric parameters.
  bool armGovernor(const Request &R, Response &Resp) SUS_REQUIRES(M);

  EngineOptions Opts;
  std::atomic<bool> Shutdown{false};

  /// Session lock: the HistContext (and everything interned in it) is
  /// single-threaded, so one request at a time touches the engine.
  Mutex M;
  core::Session S SUS_GUARDED_BY(M);
};

struct ServeOptions {
  std::string SocketPath;
  unsigned Workers = 2; ///< Connection-handling threads.
  std::ostream *Log = nullptr;
};

/// Binds \p Path and serves requests until a shutdown request arrives.
/// Returns 0 on clean shutdown, 2 when the socket cannot be bound.
int serve(Engine &E, const ServeOptions &Opts);

} // namespace daemon
} // namespace sus

#endif // SUS_DAEMON_DAEMON_H
