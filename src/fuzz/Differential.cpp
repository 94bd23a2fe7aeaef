//===- fuzz/Differential.cpp - Differential fuzzing oracles ---------------===//

#include "fuzz/Differential.h"

#include "bpa/Bpa.h"
#include "bpa/FromHist.h"
#include "contract/Compliance.h"
#include "contract/Prescreen.h"
#include "contract/Project.h"
#include "core/Snapshot.h"
#include "core/Verifier.h"
#include "fuzz/Chaos.h"
#include "hist/Derive.h"
#include "hist/HistContext.h"
#include "hist/Printer.h"
#include "hist/TraceEquiv.h"
#include "hist/Walk.h"
#include "hist/WellFormed.h"
#include "monitor/Fused.h"
#include "monitor/SessionMonitor.h"
#include "plan/PlanEnumerator.h"
#include "plan/RequestExtract.h"
#include "policy/Compile.h"
#include "policy/Validity.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"
#include "validity/StaticValidity.h"

#include <memory>
#include <random>
#include <set>
#include <sstream>

using namespace sus;
using namespace sus::fuzz;

namespace {

/// Trace-prefix comparison depth of the bpa oracle.
constexpr unsigned BpaTraceDepth = 4;
/// Governed chaos rounds per client.
constexpr unsigned ChaosRounds = 2;
/// Seeded single-bit corruptions and truncations the snapshot oracle
/// tries on every blob.
constexpr unsigned SnapshotFlips = 16;
constexpr unsigned SnapshotCuts = 6;

std::string renderDiags(const DiagnosticEngine &Diags) {
  std::string Out;
  for (const Diagnostic &D : Diags.diagnostics()) {
    if (!Out.empty())
      Out += "; ";
    Out += D.Message;
  }
  return Out;
}

/// All behaviors of a parsed file: services first (repository order),
/// then clients (declaration order).
std::vector<const hist::Expr *> allBehaviors(const syntax::SusFile &File) {
  std::vector<const hist::Expr *> Out;
  for (plan::Loc L : File.Repo.locations())
    Out.push_back(File.Repo.find(L));
  for (const auto &[Name, E] : File.Clients)
    Out.push_back(E);
  return Out;
}

/// Part of the parse check: the well-formedness facts HistContext keeps on
/// every node must agree with the checker walk that explains rejections.
/// Every node of every behaviour is checked, and an open node also closed
/// under a µ per free variable, so the walk judges how each of its free
/// variables occurs (tail position, guardedness) as the facts record it.
/// The closing µs add nodes to \p Ctx, so this runs after the oracles
/// that read the parsed file.
void wellFormedOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
                      std::vector<Divergence> &Out) {
  auto Agree = [&](const hist::Expr *E) {
    std::vector<hist::WellFormedIssue> Issues = hist::wellFormedIssues(Ctx, E);
    bool WalkClosed = true;
    for (const hist::WellFormedIssue &I : Issues)
      WalkClosed &= I.Kind != hist::WellFormedIssueKind::FreeVariable;
    if (E->isClosed() == WalkClosed &&
        hist::isWellFormed(Ctx, E) == Issues.empty())
      return true;
    Out.push_back({"parse", "well-formedness facts disagree with the "
                            "checker walk on '" +
                                hist::print(Ctx, E) + "'"});
    return false;
  };

  bool Agreed = true;
  for (const hist::Expr *B : allBehaviors(File))
    hist::walk(B, [&](const hist::Expr *E) {
      if (!Agreed)
        return false;
      const hist::Expr *Closed = E;
      if (const hist::FreeVarSet *Free = E->freeVars())
        for (const hist::FreeVarSet::Entry &V : Free->entries())
          Closed = Ctx.mu(V.Var, Closed);
      Agreed = Agree(E) && Agree(Closed);
      return Agreed;
    });
}

/// Oracle 1: the product-automaton compliance checker (Thm. 1) and the
/// literal Def. 4 ready-set procedure must return the same verdict for
/// every request-body/service pair (Lemma 1 says they coincide), and the
/// pre-screens the plan search prunes with may only reject a pair the
/// ready-set procedure rejects too (they are necessary conditions).
void complianceOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
                      std::vector<Divergence> &Out) {
  constexpr size_t MaxPairs = 128;
  size_t Pairs = 0;
  std::vector<plan::Loc> Locs = File.Repo.locations();
  for (const auto &[ClientName, Client] : File.Clients) {
    for (const plan::RequestSite &Site : plan::extractRequests(Client)) {
      for (plan::Loc L : Locs) {
        if (++Pairs > MaxPairs)
          return;
        const hist::Expr *Service = File.Repo.find(L);
        contract::ComplianceResult Product =
            contract::checkServiceCompliance(Ctx, Site.body(), Service);
        const hist::Expr *ClientContract = contract::project(Ctx, Site.body());
        const hist::Expr *ServiceContract = contract::project(Ctx, Service);
        bool Direct =
            contract::checkComplianceDirect(Ctx, ClientContract,
                                            ServiceContract);
        if (Direct && contract::prescreenCompliance(
                          contract::summarizeProjection(ClientContract),
                          contract::summarizeProjection(ServiceContract)) !=
                          contract::PrescreenVerdict::Pass) {
          std::ostringstream OS;
          OS << "request " << Site.id() << " of "
             << Ctx.interner().text(ClientName) << " vs "
             << Ctx.interner().text(L)
             << ": pre-screen rejects a pair the ready-set procedure "
                "accepts";
          Out.push_back({"prescreen", OS.str()});
        }
        if (Product.Exhausted)
          continue; // Ungoverned runs should never trip, but an
                    // inconclusive product verdict is not a divergence.
        if (Product.Compliant != Direct) {
          std::ostringstream OS;
          OS << "request " << Site.id() << " of "
             << Ctx.interner().text(ClientName) << " vs "
             << Ctx.interner().text(L) << ": product says "
             << (Product.Compliant ? "compliant" : "non-compliant")
             << ", ready-set procedure says the opposite";
          Out.push_back({"compliance", OS.str()});
        }
      }
    }
  }
}

/// Depth-bounded prefix-closed trace set of a history expression under
/// hist::derive.
void histTracesInto(hist::HistContext &Ctx, const hist::Expr *E,
                    unsigned Depth, std::vector<std::string> &Prefix,
                    std::set<std::vector<std::string>> &Out) {
  if (Depth == 0)
    return;
  for (const hist::Transition &T : hist::derive(Ctx, E)) {
    Prefix.push_back(T.L.str(Ctx.interner()));
    Out.insert(Prefix);
    histTracesInto(Ctx, T.Target, Depth - 1, Prefix, Out);
    Prefix.pop_back();
  }
}

/// The same under the BPA operational semantics; also samples full-depth
/// label words for the canPerform cross-check.
void bpaTracesInto(bpa::BpaContext &Bpa, const StringInterner &Interner,
                   const bpa::Term *T, unsigned Depth,
                   std::vector<std::string> &Prefix,
                   std::vector<hist::Label> &Labels,
                   std::set<std::vector<std::string>> &Out,
                   std::vector<std::vector<hist::Label>> &Words) {
  if (Depth == 0) {
    if (!Labels.empty() && Words.size() < 16)
      Words.push_back(Labels);
    return;
  }
  for (const bpa::BpaTransition &Tr : bpa::deriveBpa(Bpa, T)) {
    Prefix.push_back(Tr.L.str(Interner));
    Labels.push_back(Tr.L);
    Out.insert(Prefix);
    bpaTracesInto(Bpa, Interner, Tr.Target, Depth - 1, Prefix, Labels, Out,
                  Words);
    Labels.pop_back();
    Prefix.pop_back();
  }
}

/// Oracle 2: hist::derive and the BPA translation must generate the same
/// depth-bounded trace prefixes, and every sampled BPA word must be
/// performable by the original expression (subset-walk canPerform).
void bpaOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
               unsigned Depth, std::vector<Divergence> &Out) {
  unsigned Index = 0;
  for (const hist::Expr *E : allBehaviors(File)) {
    ++Index;
    std::set<std::vector<std::string>> FromDerive;
    std::vector<std::string> Prefix;
    histTracesInto(Ctx, E, Depth, Prefix, FromDerive);

    bpa::BpaContext Bpa;
    const bpa::Term *Root = bpa::fromHist(Bpa, Ctx, E);
    std::set<std::vector<std::string>> FromBpa;
    std::vector<hist::Label> Labels;
    std::vector<std::vector<hist::Label>> Words;
    bpaTracesInto(Bpa, Ctx.interner(), Root, Depth, Prefix, Labels, FromBpa,
                  Words);

    if (FromDerive != FromBpa) {
      std::ostringstream OS;
      OS << "behavior #" << Index << " (" << hist::print(Ctx, E)
         << "): derive yields " << FromDerive.size()
         << " trace prefixes at depth " << Depth << ", BPA yields "
         << FromBpa.size() << ", and the sets differ";
      Out.push_back({"bpa", OS.str()});
      continue;
    }
    for (const std::vector<hist::Label> &W : Words) {
      if (!hist::canPerform(Ctx, E, W)) {
        std::ostringstream OS;
        OS << "behavior #" << Index
           << ": BPA admits a word of length " << W.size()
           << " that canPerform rejects";
        Out.push_back({"bpa", OS.str()});
        break;
      }
    }
  }
}

/// Oracle 3: the fused-DFA session monitor and the ValidityChecker oracle
/// must agree on every label of a random trace — both on the would-admit
/// probes and on the committed verdicts.
void monitorOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
                   uint64_t Seed, unsigned TraceLen,
                   std::vector<Divergence> &Out) {
  std::vector<const hist::Expr *> Behaviors = allBehaviors(File);
  std::vector<hist::PolicyRef> Refs = monitor::collectPolicyRefs(Behaviors);
  std::vector<hist::Event> Universe = policy::eventUniverse(Behaviors);
  if (Refs.empty() || Universe.empty())
    return;

  monitor::FusedPolicyAutomaton Fused =
      monitor::fusePolicies(File.Registry, Ctx.interner(), Refs, Universe);

  // Pool of framing refs to open/close mid-trace: every collected ref,
  // one "ghost" naming an undeclared policy, and one trivial ref.
  std::vector<hist::PolicyRef> OpenPool = Refs;
  hist::PolicyRef Ghost;
  Ghost.Name = Ctx.symbol("ghost_policy");
  Ghost.Args.push_back({Value::integer(1)});
  OpenPool.push_back(Ghost);
  OpenPool.push_back(hist::PolicyRef());

  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 1);
  monitor::SessionMonitor Monitor(Fused);
  policy::ValidityChecker Legacy(File.Registry, Ctx.interner());

  for (unsigned I = 0; I < TraceLen; ++I) {
    hist::Label L = [&] {
      unsigned Roll = Rng() % 10;
      if (Roll < 6)
        return hist::Label::event(Universe[Rng() % Universe.size()]);
      const hist::PolicyRef &Ref = OpenPool[Rng() % OpenPool.size()];
      return Roll < 8 ? hist::Label::frameOpen(Ref)
                      : hist::Label::frameClose(Ref);
    }();

    bool LegacyProbe = Legacy.wouldRemainValid(L);
    bool FusedProbe = Monitor.wouldAdmit(L);
    if (LegacyProbe != FusedProbe) {
      Out.push_back({"monitor",
                     "probe disagreement at step " + std::to_string(I) +
                         " on " + L.str(Ctx.interner()) + ": legacy says " +
                         (LegacyProbe ? "admit" : "reject") +
                         ", fused says the opposite"});
      return;
    }

    Legacy.append(L);
    Monitor.advance(L);
    if (Legacy.isValid() != !Monitor.isViolated()) {
      Out.push_back({"monitor",
                     "verdict disagreement after step " + std::to_string(I) +
                         " (" + L.str(Ctx.interner()) + "): legacy " +
                         (Legacy.isValid() ? "valid" : "violated") +
                         ", fused the opposite"});
      return;
    }
  }

  // Chunked probe: the multi-label lookahead must agree too.
  std::vector<hist::Label> Chunk;
  for (unsigned I = 0; I < 6; ++I)
    Chunk.push_back(hist::Label::event(Universe[Rng() % Universe.size()]));
  if (Legacy.wouldRemainValidAll(Chunk) != Monitor.wouldAdmitAll(Chunk))
    Out.push_back(
        {"monitor", "chunked probe disagreement on a 6-label lookahead"});
}

/// Oracle 4: the Interpreter's monitor. Each client runs alone under a
/// random plan that binds every request site of the file to a random
/// published service or to one location nothing is published at, so runs
/// both block on policies and stop at plan gaps. Every client is run with
/// the monitor on and off, in a random choice mode.
void interpreterOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
                       uint64_t Seed, unsigned MaxSteps,
                       std::vector<Divergence> &Out) {
  std::vector<plan::Loc> Targets = File.Repo.locations();
  Targets.push_back(Ctx.symbol("unpublished_service"));
  std::vector<plan::RequestSite> Sites;
  for (const hist::Expr *E : allBehaviors(File)) {
    std::vector<plan::RequestSite> Found = plan::extractRequests(E);
    Sites.insert(Sites.end(), Found.begin(), Found.end());
  }

  std::mt19937_64 Rng(Seed * 0x94d049bb133111ebull + 3);
  for (const auto &[Name, Client] : File.Clients) {
    plan::Plan Pi;
    for (const plan::RequestSite &Site : Sites)
      Pi.rebind(Site.id(), Targets[Rng() % Targets.size()]);
    net::InterpreterOptions Opts;
    Opts.CommittedInternalChoice = Rng() % 2 == 0;
    for (bool Monitor : {true, false}) {
      Opts.MonitorEnabled = Monitor;
      net::Interpreter Interp(Ctx, File.Repo, File.Registry,
                              {{Name, Client, Pi}}, Opts);
      std::string Diff = checkInterpreterMonitor(
          Interp, File.Registry, Ctx.interner(), Rng(), MaxSteps);
      if (!Diff.empty()) {
        Out.push_back({"interpreter",
                       "client " + std::string(Ctx.interner().text(Name)) +
                           " under " + Pi.str(Ctx.interner()) + " (monitor " +
                           (Monitor ? "on" : "off") + "): " + Diff});
        return;
      }
    }
  }
}

/// Oracle 5: the §5 theorem. A plan the static checker finds valid can run
/// with the monitor switched off: for up to four enumerated candidate
/// plans per client that checkPlanValidity accepts, an unmonitored,
/// angelic run under a seeded scheduler must never record a violation and
/// never be offered a plan gap.
void securityOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
                    uint64_t Seed, unsigned MaxSteps,
                    std::vector<Divergence> &Out) {
  constexpr size_t MaxValidPlans = 4;
  std::mt19937_64 Rng(Seed * 0xbf58476d1ce4e5b9ull + 5);
  for (const auto &[Name, Client] : File.Clients) {
    plan::EnumerationResult Candidates =
        plan::enumeratePlans(Client, File.Repo);
    size_t Checked = 0;
    for (const plan::Plan &Pi : Candidates.Plans) {
      if (Checked == MaxValidPlans)
        break;
      if (!validity::checkPlanValidity(Ctx, Client, Name, Pi, File.Repo,
                                       File.Registry))
        continue;
      ++Checked;
      net::InterpreterOptions Opts;
      Opts.MonitorEnabled = false;
      net::Interpreter Interp(Ctx, File.Repo, File.Registry,
                              {{Name, Client, Pi}}, Opts);
      std::mt19937_64 Sched(Rng());
      std::string Diff;
      for (unsigned N = 0; N < MaxSteps && Diff.empty(); ++N) {
        std::vector<net::Step> All = Interp.steps();
        std::vector<const net::Step *> Applicable;
        for (const net::Step &S : All) {
          if (S.PlanGap)
            Diff = "is offered the plan gap '" + S.Desc + "'";
          else if (!S.CapacityBlocked)
            Applicable.push_back(&S);
        }
        if (!Diff.empty() || Applicable.empty())
          break;
        const net::Step &S = *Applicable[Sched() % Applicable.size()];
        Interp.apply(S);
        if (Interp.isViolated(0))
          Diff = "violates a policy at step " + std::to_string(N) + " '" +
                 S.Desc + "'";
      }
      if (!Diff.empty()) {
        Out.push_back({"security",
                       "client " + std::string(Ctx.interner().text(Name)) +
                           " under statically valid " +
                           Pi.str(Ctx.interner()) + ": unmonitored run " +
                           Diff});
        return;
      }
    }
  }
}

/// Verifies every client through a dedicated verifier over \p Cache and
/// renders the full report stream. Byte equality of this string across a
/// snapshot round trip is the warm-restart contract (DESIGN.md §13).
std::string verifyAllInto(hist::HistContext &Ctx, const syntax::SusFile &File,
                          core::Verifier &V) {
  std::ostringstream OS;
  for (const auto &[Name, Client] : File.Clients) {
    core::VerificationReport Report = V.verifyClient(Client, Name);
    core::printReport(Report, Ctx, OS);
  }
  return OS.str();
}

/// Oracle 6: persistence. A snapshot cut after a cold verification must
/// reload into a *fresh* context (simulating a restarted process) and the
/// warm verifier must reproduce the cold verdict stream byte for byte.
/// Then a seeded corruption battery — single-bit flips and truncations of
/// the blob — must be rejected cleanly every time: loadSnapshot returns
/// !Ok with a diagnostic, never crashes, never absorbs a partial load.
void snapshotOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
                    const std::string &Source, uint64_t Seed,
                    std::vector<Divergence> &Out) {
  // Cold run: fill a cache, render the reports, cut the snapshot.
  core::VerifierOptions VOpts;
  VOpts.UseIndex = true;
  auto ColdCache = std::make_shared<core::VerifierCache>();
  core::Verifier Cold(Ctx, File.Repo, File.Registry, VOpts, ColdCache);
  std::string ColdText = verifyAllInto(Ctx, File, Cold);
  std::string Bytes =
      core::saveSnapshot(Ctx, File.Repo, *ColdCache, Cold.index());
  if (Bytes.empty()) {
    Out.push_back({"snapshot", "saveSnapshot produced an empty blob"});
    return;
  }

  // Warm run: fresh context + re-parse stands in for the new process.
  hist::HistContext Ctx2;
  DiagnosticEngine Diags2;
  std::optional<syntax::SusFile> File2 =
      syntax::parseSusFile(Ctx2, Source, Diags2, "fuzz.sus");
  if (!File2) {
    Out.push_back({"snapshot", "re-parse failed: " + renderDiags(Diags2)});
    return;
  }
  auto WarmCache = std::make_shared<core::VerifierCache>();
  core::SnapshotLoadResult Load =
      core::loadSnapshot(Bytes, Ctx2, File2->Repo, *WarmCache);
  if (!Load.Ok) {
    Out.push_back({"snapshot", "round trip rejected: " + Load.Error});
    return;
  }
  core::Verifier Warm(Ctx2, File2->Repo, File2->Registry, VOpts, WarmCache);
  if (!Load.IndexEntries.empty())
    Warm.adoptIndex(std::make_unique<plan::ServiceIndex>(
        Ctx2, File2->Repo, Load.IndexEntries));
  std::string WarmText = verifyAllInto(Ctx2, *File2, Warm);
  if (WarmText != ColdText) {
    Out.push_back({"snapshot",
                   "warm-restart verdicts differ from the cold run (cold " +
                       std::to_string(ColdText.size()) + " bytes, warm " +
                       std::to_string(WarmText.size()) + " bytes)"});
    return;
  }

  // Corruption battery. Every mutant targets a scratch cache so a buggy
  // partial absorb cannot poison later probes.
  auto mustReject = [&](const std::string &Mutant, const std::string &What) {
    core::VerifierCache Scratch;
    core::SnapshotLoadResult C =
        core::loadSnapshot(Mutant, Ctx2, File2->Repo, Scratch);
    if (C.Ok)
      Out.push_back({"snapshot", "corrupt blob accepted: " + What});
    else if (C.Error.empty())
      Out.push_back(
          {"snapshot", "corrupt blob rejected without a diagnostic: " + What});
  };

  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 7);
  for (unsigned I = 0; I < SnapshotFlips; ++I) {
    std::string Mutant = Bytes;
    size_t Pos = Rng() % Mutant.size();
    Mutant[Pos] = static_cast<char>(
        static_cast<unsigned char>(Mutant[Pos]) ^ (1u << (Rng() % 8)));
    mustReject(Mutant, "bit flip at offset " + std::to_string(Pos));
  }
  for (unsigned I = 0; I < SnapshotCuts; ++I) {
    size_t Len = Rng() % Bytes.size();
    mustReject(Bytes.substr(0, Len),
               "truncation to " + std::to_string(Len) + " bytes");
  }
  mustReject(Bytes + std::string(1, '\0'), "one trailing garbage byte");

  // The pristine blob must still load after all that (rejections are
  // side-effect free), including into the cache that already absorbed it.
  core::SnapshotLoadResult Again =
      core::loadSnapshot(Bytes, Ctx2, File2->Repo, *WarmCache);
  if (!Again.Ok)
    Out.push_back(
        {"snapshot", "pristine blob no longer loads: " + Again.Error});
}

} // namespace

bool sus::fuzz::checkSource(const std::string &Source, uint64_t Seed,
                            const FuzzOptions &Opts,
                            std::vector<Divergence> &Out) {
  auto Ctx = std::make_unique<hist::HistContext>();
  DiagnosticEngine Diags;
  std::optional<syntax::SusFile> File =
      syntax::parseSusFile(*Ctx, Source, Diags, "fuzz.sus");
  if (!File) {
    Out.push_back({"parse", renderDiags(Diags)});
    return false;
  }

  complianceOracle(*Ctx, *File, Out);
  bpaOracle(*Ctx, *File, BpaTraceDepth, Out);
  monitorOracle(*Ctx, *File, Seed, Opts.MonitorTraceLen, Out);
  interpreterOracle(*Ctx, *File, Seed, Opts.MonitorTraceLen, Out);
  securityOracle(*Ctx, *File, Seed, Opts.MonitorTraceLen, Out);
  snapshotOracle(*Ctx, *File, Source, Seed, Out);
  if (Opts.Chaos)
    chaosSoak(*Ctx, *File, Seed, ChaosRounds, Out);
  wellFormedOracle(*Ctx, *File, Out);
  return true;
}

std::string sus::fuzz::checkInterpreterMonitor(
    net::Interpreter &Interp, const policy::PolicyRegistry &Registry,
    const StringInterner &Interner, uint64_t Seed, unsigned MaxSteps) {
  bool Monitor = Interp.options().MonitorEnabled;
  std::vector<policy::ValidityChecker> Oracles;
  Oracles.reserve(Interp.numComponents());
  for (size_t C = 0; C < Interp.numComponents(); ++C)
    Oracles.emplace_back(Registry, Interner);

  std::mt19937_64 Rng(Seed);
  for (unsigned N = 0; N < MaxSteps; ++N) {
    std::vector<net::Step> All = Interp.steps();
    std::vector<const net::Step *> Applicable;
    for (const net::Step &S : All) {
      bool Blocked = Monitor && !Oracles[S.Component].wouldRemainValidAll(
                                    S.HistoryAppend);
      if (S.Blocked != Blocked)
        return "step " + std::to_string(N) + " '" + S.Desc + "' is " +
               (S.Blocked ? "blocked" : "admitted") +
               " by the monitor, the oracle says the opposite";
      if (!S.PlanGap && !S.CapacityBlocked && !(Monitor && S.Blocked))
        Applicable.push_back(&S);
    }
    if (Applicable.empty())
      break;
    const net::Step &S = *Applicable[Rng() % Applicable.size()];
    if (!Interp.apply(S))
      return "applicable step '" + S.Desc + "' failed to apply";
    for (const hist::Label &L : S.HistoryAppend)
      Oracles[S.Component].append(L);
  }
  for (size_t C = 0; C < Interp.numComponents(); ++C)
    if (Interp.isViolated(C) != !Oracles[C].isValid())
      return "component " + std::to_string(C) + " is " +
             (Interp.isViolated(C) ? "violated" : "valid") +
             ", the oracle says the opposite of its final history";
  return "";
}

SeedReport sus::fuzz::runSeed(uint64_t Seed, const FuzzOptions &Opts) {
  SeedReport R;
  R.Seed = Seed;
  R.Program = generateProgram(Seed, Opts.Gen);
  checkSource(R.Program.source(), Seed, Opts, R.Divergences);
  if (!R.Divergences.empty()) {
    auto StillFails = [&](const std::vector<std::string> &Decls) {
      std::vector<Divergence> D;
      checkSource(joinDecls(Decls), Seed, Opts, D);
      return !D.empty();
    };
    R.MinimizedSource = joinDecls(minimizeDecls(R.Program.Decls, StillFails));
  }
  return R;
}

std::vector<std::string> sus::fuzz::minimizeDecls(
    std::vector<std::string> Decls,
    const std::function<bool(const std::vector<std::string> &)> &StillFails) {
  bool Progress = true;
  while (Progress && Decls.size() > 1) {
    Progress = false;
    for (size_t I = 0; I < Decls.size(); ++I) {
      std::vector<std::string> Candidate;
      Candidate.reserve(Decls.size() - 1);
      for (size_t J = 0; J < Decls.size(); ++J)
        if (J != I)
          Candidate.push_back(Decls[J]);
      if (StillFails(Candidate)) {
        Decls = std::move(Candidate);
        Progress = true;
        break;
      }
    }
  }
  return Decls;
}
