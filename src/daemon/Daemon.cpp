//===- daemon/Daemon.cpp - The resident verification engine ---------------===//

#include "daemon/Daemon.h"

#include "analysis/Lint.h"
#include "daemon/Socket.h"
#include "plan/ServiceIndex.h"
#include "support/ParseCount.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

using namespace sus;
using namespace sus::daemon;

namespace {

Response errorResponse(const std::string &Msg) {
  Response Resp;
  Resp.Exit = 2;
  Resp.Body = "susd: " + Msg + "\n";
  return Resp;
}

/// Reads the count parameter \p Key into \p Out when present. False
/// with an exit-2 response in \p Resp when it is malformed.
bool countParam(const Request &R, const std::string &Key, uint64_t &Out,
                Response &Resp) {
  if (!R.has(Key))
    return true;
  const std::string &Value = R.param(Key);
  switch (parseCount(Value, Out)) {
  case CountParse::Ok:
    return true;
  case CountParse::NotDigits:
    Resp = errorResponse("parameter '" + Key +
                         "' expects a non-negative integer, got '" + Value +
                         "'");
    return false;
  case CountParse::OutOfRange:
    Resp = errorResponse("parameter '" + Key + "' value '" + Value +
                         "' is out of range");
    return false;
  }
  return false;
}

Response replyWith(const std::ostringstream &OS, int Exit = 0) {
  Response Resp;
  Resp.Exit = Exit;
  Resp.Body = OS.str();
  return Resp;
}

} // namespace

std::unique_ptr<Engine> Engine::create(std::string Source,
                                       std::string FileName,
                                       EngineOptions Opts, std::string &Err) {
  std::unique_ptr<Engine> E(new Engine(std::move(Opts)));
  MutexLock Lock(E->M);
  core::VerifierOptions VOpts;
  VOpts.UseIndex = E->Opts.UseIndex;
  DiagnosticEngine Diags;
  if (!E->S.open(std::move(Source), std::move(FileName), VOpts, Diags)) {
    std::ostringstream OS;
    Diags.print(OS, DiagFormat::Text);
    Err = OS.str();
    if (Err.empty())
      Err = "cannot parse '" + E->S.fileName() + "'";
    return nullptr;
  }
  return E;
}

bool Engine::loadSnapshotBytes(const std::string &Bytes, std::string &Err,
                               core::SnapshotStats *Stats) {
  MutexLock Lock(M);
  return S.loadSnapshot(Bytes, Err, Stats);
}

std::string Engine::saveSnapshotBytes(core::SnapshotStats *Stats) {
  MutexLock Lock(M);
  return S.saveSnapshot(Stats);
}

int Engine::warmAll(std::ostream &OS) {
  MutexLock Lock(M);
  return S.verifyAll(/*OnlyPlan=*/"", /*Enumerate=*/true, OS);
}

Response Engine::handle(const Request &R) {
  MutexLock Lock(M);
  Response Resp;

  if (R.Verb == "ping") {
    Resp.Body = "pong\n";
    return Resp;
  }
  if (R.Verb == "shutdown") {
    Shutdown.store(true, std::memory_order_relaxed);
    Resp.Body = "bye\n";
    return Resp;
  }
  if (R.Verb == "stats")
    return stats(R);
  if (R.Verb == "snapshot")
    return snapshot(R);

  if (R.Verb == "verify" || R.Verb == "lint" || R.Verb == "churn") {
    if (!armGovernor(R, Resp))
      return Resp;
    if (R.Verb == "verify")
      Resp = verify(R);
    else if (R.Verb == "lint")
      Resp = lint(R);
    else
      Resp = churn(R);
    S.verifier().setGovernor(nullptr); // Disarm: the next request re-arms.
    return Resp;
  }

  return errorResponse("unknown verb '" + R.Verb +
                       "' (valid: ping, stats, verify, lint, churn, "
                       "snapshot, shutdown)");
}

bool Engine::armGovernor(const Request &R, Response &Resp) {
  TenantBudget Override;
  for (const char *Key : TenantBudget::FieldNames)
    if (!countParam(R, Key, *Override.field(Key), Resp))
      return false;
  S.verifier().setGovernor(
      Opts.Tenants.governorFor(R.param("tenant", "*"), Override));
  return true;
}

Response Engine::verify(const Request &R) {
  std::ostringstream OS;
  std::string OnlyPlan = R.param("plan");
  bool Enumerate = R.param("enumerate", "1") != "0";

  std::string Only = R.param("client");
  if (Only.empty())
    return replyWith(OS, S.verifyAll(OnlyPlan, Enumerate, OS));
  Symbol Name = S.ctx().interner().lookup(Only);
  const hist::Expr *Client =
      Name.isValid() ? S.file().findClient(Name) : nullptr;
  if (!Client)
    return errorResponse("no client named '" + Only + "'");
  core::ClientOutcome O = S.verifyClient(Name, Client, OnlyPlan, Enumerate, OS);
  core::ExitTally Tally;
  Tally.add(O.FirstValid.has_value(), O.Inconclusive);
  return replyWith(OS, Tally.code());
}

Response Engine::lint(const Request &R) {
  (void)R;
  std::ostringstream OS;
  DiagnosticEngine Diags;
  // LintContext stores a reference to its options — keep them alive for
  // the whole run.
  analysis::LintOptions LOpts;
  analysis::LintContext LC(S.ctx(), S.file(), S.fileName(), LOpts, Diags);
  unsigned Findings = analysis::runLintPasses(LC);
  Diags.print(OS, DiagFormat::Text);
  OS << S.fileName() << ": " << Findings << " finding(s)\n";
  return replyWith(OS, Findings ? 1 : 0);
}

Response Engine::churn(const Request &R) {
  uint64_t Rounds = 1, Seed = 1;
  Response Resp;
  if (!countParam(R, "rounds", Rounds, Resp) ||
      !countParam(R, "seed", Seed, Resp))
    return Resp;
  if (Rounds == 0)
    return errorResponse("parameter 'rounds' must be at least 1");
  if (S.file().Repo.size() == 0)
    return errorResponse("churn needs a non-empty repository");

  std::ostringstream OS;
  core::ExitTally Tally;
  // One LCG across all clients, the same draws as `susc plan --churn`.
  uint64_t Rng = Seed;
  for (const auto &[Name, Client] : S.file().Clients) {
    OS << "== client " << S.ctx().interner().text(Name) << " ==\n";
    core::RepairSession Repair(S.verifier(), Client, Name);
    OS << "valid plans: " << Repair.verify().validPlans().size() << "\n";
    bool Completed = S.replayChurn(Repair, Rounds, Rng, OS);
    const core::VerificationReport &Final = Repair.report();
    Tally.add(!Final.validPlans().empty(),
              !Completed || Final.anyInconclusive());
  }
  return replyWith(OS, Tally.code());
}

Response Engine::snapshot(const Request &R) {
  std::string Path = R.param("file");
  if (Path.empty())
    return errorResponse("snapshot needs file=PATH");
  core::SnapshotStats Stats;
  std::string Err;
  if (!core::writeFileAtomic(Path, S.saveSnapshot(&Stats), Err))
    return errorResponse("cannot write snapshot to '" + Path + "': " + Err);

  std::ostringstream OS;
  OS << "snapshot: " << Stats.Bytes << " bytes to '" << Path << "' ("
     << Stats.Projections << " projections, " << Stats.Compliances
     << " compliances, " << Stats.Validities << " validities, "
     << Stats.IndexEntries << " index entries)\n";
  return replyWith(OS);
}

Response Engine::stats(const Request &R) {
  (void)R;
  std::ostringstream OS;
  core::Verifier &V = S.verifier();
  core::VerifierStats C = V.stats();
  OS << "cache: compliance " << C.ComplianceHits << "/" << C.ComplianceLookups
     << " hits, projection " << C.ProjectionHits << "/" << C.ProjectionLookups
     << " hits, validity " << C.ValidityHits << "/" << C.ValidityLookups
     << " hits\n";
  if (const plan::ServiceIndex *Index =
          V.options().UseIndex ? V.index() : nullptr) {
    plan::IndexStats IStats = Index->stats();
    OS << "index: " << Index->size() << " services, " << IStats.Lookups
       << " lookups (" << IStats.Hits << " memo hits)\n";
  }
  OS << "repository: " << S.file().Repo.size() << " services, "
     << S.file().Clients.size() << " clients\n";
  core::ReportMemoStats Memo = S.reportMemoStats();
  OS << "reports: " << Memo.Hits << "/" << Memo.Lookups << " memo hits\n";
  return replyWith(OS);
}

//===----------------------------------------------------------------------===//
// The accept loop
//===----------------------------------------------------------------------===//

namespace {

/// Serves one connection end to end: one request line in, one response
/// out. Runs on a pool worker; Engine::handle serializes internally. A
/// client silent past RequestReadTimeoutMs gets an exit-2 response, so it
/// holds the worker no longer than that.
void serveConnection(Engine &E, int Fd) {
  std::string Err;
  std::string Line;
  Response Resp;
  ConnectionReader Reader(Fd, RequestReadTimeoutMs);
  if (!Reader.readLine(Line, MaxRequestLine, Err)) {
    Resp = errorResponse(Err);
  } else {
    Request Req;
    if (!parseRequest(Line, Req, Err))
      Resp = errorResponse(Err);
    else
      Resp = E.handle(Req);
  }
  std::string Wire = formatResponseHeader(Resp) + "\n" + Resp.Body;
  std::string WriteErr;
  (void)writeAll(Fd, Wire, WriteErr); // Peer may hang up; nothing to do.
  closeFd(Fd);
}

} // namespace

int daemon::serve(Engine &E, const ServeOptions &Opts) {
  std::ostream &Log = Opts.Log ? *Opts.Log : std::cerr;
  std::string Err;
  int ListenFd = listenOn(Opts.SocketPath, Err);
  if (ListenFd < 0) {
    Log << "susd: " << Err << "\n";
    return 2;
  }
  Log << "susd: listening on " << Opts.SocketPath << "\n";
  Log.flush();

  {
    ThreadPool Pool(std::max(1u, Opts.Workers));
    while (!E.shutdownRequested()) {
      int Fd = acceptClient(ListenFd, /*TimeoutMs=*/200, Err);
      if (Fd == -2) {
        Log << "susd: " << Err << "\n";
        break;
      }
      if (Fd < 0)
        continue; // Timeout: re-check the shutdown flag.
      Pool.submit([&E, Fd](unsigned) { serveConnection(E, Fd); });
    }
    // Pool destructor drains in-flight connections before we unlink.
  }

  closeFd(ListenFd);
  std::remove(Opts.SocketPath.c_str());
  Log << "susd: shut down\n";
  return 0;
}
