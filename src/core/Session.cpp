//===- core/Session.cpp - The request core of susc and susd ---------------===//

#include "core/Session.h"

#include "plan/RepositoryDelta.h"
#include "support/ParseCount.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace sus;
using namespace sus::core;

bool Session::open(std::string Src, std::string Name, VerifierOptions Opts,
                   DiagnosticEngine &Diags) {
  Source = std::move(Src);
  FileName = std::move(Name);
  File = syntax::parseSusFile(Ctx, Source, Diags, FileName);
  if (!File)
    return false;
  V = std::make_unique<Verifier>(Ctx, File->Repo, File->Registry,
                                 std::move(Opts));
  return true;
}

ClientOutcome Session::verifyClient(Symbol Name, const hist::Expr *Client,
                                    const std::string &OnlyPlan,
                                    bool Enumerate, std::ostream &OS) {
  if (!OnlyPlan.empty() || V->options().Governor)
    return renderClient(Name, Client, OnlyPlan, Enumerate, OS);
  ++MemoLookups;
  auto [It, Fresh] =
      Memo.try_emplace(uint64_t(Name.id()) * 2 + (Enumerate ? 1 : 0));
  MemoEntry &Kept = It->second;
  if (Fresh) {
    std::ostringstream Text;
    Kept.Outcome = renderClient(Name, Client, OnlyPlan, Enumerate, Text);
    Kept.Text = Text.str();
  } else {
    ++MemoHits;
#ifdef SUS_AUDIT
    // The memo must never answer what a fresh render would not.
    std::ostringstream Text;
    ClientOutcome Again =
        renderClient(Name, Client, OnlyPlan, Enumerate, Text);
    if (Text.str() != Kept.Text ||
        Again.FirstValid != Kept.Outcome.FirstValid ||
        Again.Inconclusive != Kept.Outcome.Inconclusive) {
      std::fprintf(stderr,
                   "report memo audit: stale report for client '%s'\n",
                   std::string(Ctx.interner().text(Name)).c_str());
      std::abort();
    }
#endif
  }
  OS << Kept.Text;
  return Kept.Outcome;
}

ClientOutcome Session::renderClient(Symbol Name, const hist::Expr *Client,
                                    const std::string &OnlyPlan,
                                    bool Enumerate, std::ostream &OS) {
  ClientOutcome Out;
  OS << "== client " << Ctx.interner().text(Name) << " ==\n";

  // Declared plans first.
  for (const syntax::PlanDecl &Decl : File->Plans) {
    if (Decl.Client != Name)
      continue;
    std::string PlanName(Ctx.interner().text(Decl.Name));
    if (!OnlyPlan.empty() && PlanName != OnlyPlan)
      continue;
    PlanVerdict Verdict = V->checkPlan(Client, Name, Decl.Pi);
    OS << "plan " << PlanName << " " << Decl.Pi.str(Ctx.interner()) << ": ";
    if (Verdict.inconclusive()) {
      std::optional<ResourceExhausted> E = Verdict.exhaustedReason();
      OS << "Inconclusive(resource: "
         << (E ? resourceKindName(E->Which) : "unknown") << ")\n";
      Out.Inconclusive = true;
      continue;
    }
    OS << (Verdict.isValid() ? "VALID" : "invalid") << "\n";
    for (const RequestCheck &C : Verdict.RequestChecks)
      if (!C.Compliant && !C.Exhausted) {
        OS << "  request " << C.Request << ": not compliant";
        if (C.Witness)
          OS << " (" << C.Witness->str(Ctx) << ")";
        OS << "\n";
      }
    if (!Verdict.Security.Valid &&
        Verdict.Security.Failure != validity::PlanFailureKind::None &&
        Verdict.Security.Failure !=
            validity::PlanFailureKind::ResourceExhausted) {
      OS << "  security: failed";
      if (Verdict.Security.Policy)
        OS << " (policy " << Verdict.Security.Policy->str(Ctx.interner())
           << ")";
      if (!Verdict.Security.Trace.empty()) {
        OS << " via";
        for (const std::string &L : Verdict.Security.Trace)
          OS << " " << L;
      }
      OS << "\n";
    }
    if (Verdict.isValid() && !Out.FirstValid)
      Out.FirstValid = Decl.Pi;
  }

  // Enumerated candidates.
  if (Enumerate && OnlyPlan.empty()) {
    VerificationReport Report = V->verifyClient(Client, Name);
    printReport(Report, Ctx, OS);
    if (Report.anyInconclusive())
      Out.Inconclusive = true;
    if (!Out.FirstValid) {
      std::vector<plan::Plan> Valid = Report.validPlans();
      if (!Valid.empty())
        Out.FirstValid = Valid.front();
    }
  }
  return Out;
}

int Session::verifyAll(const std::string &OnlyPlan, bool Enumerate,
                       std::ostream &OS) {
  ExitTally Tally;
  for (const auto &[Name, Client] : File->Clients) {
    ClientOutcome O = verifyClient(Name, Client, OnlyPlan, Enumerate, OS);
    Tally.add(O.FirstValid.has_value(), O.Inconclusive);
  }
  return Tally.code();
}

namespace {

/// A percentile over recorded repair latencies (rounded-down index, the
/// same convention as the benchmarks).
int64_t percentileUs(std::vector<int64_t> Sorted, size_t Pct) {
  if (Sorted.empty())
    return 0;
  std::sort(Sorted.begin(), Sorted.end());
  return Sorted[std::min(Sorted.size() - 1, Sorted.size() * Pct / 100)];
}

} // namespace

bool Session::replayChurn(RepairSession &Repair, uint64_t Rounds,
                          uint64_t &Rng, std::ostream &OS) {
  // Deterministic picks: a tiny LCG (constants from Numerical Recipes) so
  // replays are reproducible across runs, platforms and both tools.
  auto NextRand = [&Rng]() {
    Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return Rng >> 33;
  };
  plan::Repository &Repo = File->Repo;
  // Each round changes the repository, and a tripped round may leave it
  // changed: no kept report survives.
  Memo.clear();
  std::vector<plan::Loc> Locs = Repo.locations();
  size_t Kept = 0, Dropped = 0, Reverified = 0, Repairs = 0;
  std::vector<int64_t> LatenciesUs;
  bool Tripped = false;
  for (uint64_t Round = 0; Round < Rounds && !Tripped; ++Round) {
    plan::Loc L = Locs[NextRand() % Locs.size()];
    const hist::Expr *Service = Repo.find(L);
    unsigned Capacity = Repo.capacity(L);
    // One round = remove + re-publish: the repository ends the round
    // unchanged, and both delta directions get exercised.
    for (int Phase = 0; Phase < 2; ++Phase) {
      plan::RepositoryDelta Delta;
      Delta.Changes.push_back(
          Phase == 0 ? plan::applyRemove(Repo, L)
                     : plan::applyPublish(Repo, L, Service, Capacity));
      auto Start = std::chrono::steady_clock::now();
      Outcome<RepairStats> R = Repair.applyDelta(Delta);
      auto End = std::chrono::steady_clock::now();
      LatenciesUs.push_back(
          std::chrono::duration_cast<std::chrono::microseconds>(End - Start)
              .count());
      ++Repairs;
      if (!R.ok()) {
        OS << "churn: round " << Round << " Inconclusive(resource: "
           << resourceKindName(R.exhausted().Which) << ")\n";
        Tripped = true;
        break;
      }
      Kept += R.value().PlansKept;
      Dropped += R.value().PlansDropped;
      Reverified += R.value().PlansReverified;
    }
  }
  OS << "churn: " << Repairs << " repairs over " << Rounds
     << " round(s), plans kept " << Kept << ", dropped " << Dropped
     << ", reverified " << Reverified << "\n";
  OS << "repair latency: p50 " << percentileUs(LatenciesUs, 50)
     << " us, p99 " << percentileUs(LatenciesUs, 99) << " us\n";
  OS << "valid plans after churn: " << Repair.report().validPlans().size()
     << "\n";
  return !Tripped;
}

bool Session::loadSnapshot(std::string_view Bytes, std::string &Err,
                           SnapshotStats *Stats) {
  SnapshotLoadResult R =
      core::loadSnapshot(Bytes, Ctx, File->Repo, *V->cache());
  if (!R.Ok) {
    Err = R.Error;
    return false;
  }
  if (Stats)
    *Stats = R.Stats;
  Memo.clear();
  if (V->options().UseIndex && !R.IndexEntries.empty())
    V->adoptIndex(std::make_unique<plan::ServiceIndex>(Ctx, File->Repo,
                                                       R.IndexEntries));
  return true;
}

std::string Session::saveSnapshot(SnapshotStats *Stats) {
  // The scan screens through an index too, but only an indexed session
  // persists it: a --no-index snapshot stays index-free.
  return core::saveSnapshot(Ctx, File->Repo, *V->cache(),
                            V->options().UseIndex ? V->index() : nullptr,
                            Stats);
}

bool core::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

namespace {

/// Unlinks the temp siblings \p Base.tmp.<pid>.<n> in \p Dir that a save
/// killed before its rename left behind: those whose pid no longer runs.
/// A live pid keeps its file (it may be a save in flight, this process's
/// own included); a recycled pid only delays the cleanup to a later save.
void removeStaleTempSiblings(const std::string &Dir, const std::string &Base) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return;
  const std::string Prefix = Base + ".tmp.";
  while (const dirent *E = ::readdir(D)) {
    std::string_view Name = E->d_name;
    if (Name.compare(0, Prefix.size(), Prefix) != 0)
      continue;
    Name.remove_prefix(Prefix.size());
    size_t Dot = Name.find('.');
    uint64_t Pid = 0, Seq = 0;
    if (Dot == std::string_view::npos ||
        parseCount(Name.substr(0, Dot), Pid) != CountParse::Ok ||
        parseCount(Name.substr(Dot + 1), Seq) != CountParse::Ok ||
        Pid == 0 || Pid > static_cast<uint64_t>(INT32_MAX))
      continue;
    if (::kill(static_cast<pid_t>(Pid), 0) != 0 && errno == ESRCH)
      (void)::unlinkat(::dirfd(D), E->d_name, 0);
  }
  ::closedir(D);
}

} // namespace

bool core::writeFileAtomic(const std::string &Path, std::string_view Bytes,
                           std::string &Err) {
  // The temp file sits next to the target, so the rename never crosses a
  // filesystem and is atomic. Its name is unique per process and call;
  // O_EXCL refuses to reuse a stale one.
  static std::atomic<uint64_t> Counter{0};
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(Counter.fetch_add(1));
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (Fd < 0) {
    Err = std::strerror(errno);
    return false;
  }
  bool Ok = true;
  for (size_t Done = 0; Ok && Done < Bytes.size();) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N > 0)
      Done += static_cast<size_t>(N);
    else if (N < 0 && errno != EINTR)
      Ok = false;
  }
  if (Ok && ::fsync(Fd) != 0)
    Ok = false;
  int Errno = errno; // Meaningful only once Ok is false.
  if (::close(Fd) != 0 && Ok) {
    Ok = false;
    Errno = errno;
  }
  if (Ok && ::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Ok = false;
    Errno = errno;
  }
  if (!Ok) {
    ::unlink(Tmp.c_str());
    Err = std::strerror(Errno);
    return false;
  }
  // Make the rename itself durable (best effort: the data already is).
  size_t Slash = Path.rfind('/');
  std::string Dir =
      Slash == std::string::npos ? "." : Path.substr(0, Slash + 1);
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (DirFd >= 0) {
    (void)::fsync(DirFd);
    ::close(DirFd);
  }
  removeStaleTempSiblings(Dir, Path.substr(Slash + 1));
  return true;
}
