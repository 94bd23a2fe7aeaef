//===- analysis/PlanLints.cpp - Plan and session checks -------------------===//
///
/// Two passes over the orchestration layer:
///
///  - sus-lint-no-candidate-service: a request site no published service
///    can serve — every compliance check Hc! ⊢ Hs! against the repository
///    fails, so no plan can ever bind the request;
///  - sus-lint-deadend-ready-sets: declared `plan` blocks whose bindings
///    cannot work — unknown clients or locations, requests nothing opens,
///    and bindings where some nonempty client ready set cannot synchronize
///    with some service ready set (Def. 4's condition fails at the very
///    first step, so the pair can get stuck immediately).
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "contract/Compliance.h"
#include "contract/Prescreen.h"
#include "contract/Project.h"
#include "contract/ReadySets.h"
#include "plan/RequestExtract.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

using namespace sus;
using namespace sus::analysis;

namespace {

std::string renderReadySet(const contract::ReadySet &S,
                           const StringInterner &In) {
  std::string Out = "{";
  for (const hist::CommAction &A : S) {
    if (Out.size() > 1)
      Out += ", ";
    Out += A.str(In);
  }
  return Out + "}";
}

class NoCandidateServicePass : public LintPass {
public:
  std::string_view id() const override {
    return "sus-lint-no-candidate-service";
  }
  std::string_view category() const override { return "lint.plan"; }
  std::string_view description() const override {
    return "requests no published service is compliant with";
  }

  void run(LintContext &LC) const override {
    hist::HistContext &Ctx = LC.context();
    const StringInterner &In = Ctx.interner();
    const syntax::SusFile &File = LC.file();

    // Compliance depends only on the two behaviours; memoize across
    // request sites that share a body (hash-consing makes this common).
    // The pre-screens run first on per-expression summaries: a Reject is
    // a sound refutation, so most pairs never build a product.
    std::map<const hist::Expr *, contract::ContractSummary> Summaries;
    auto Summary =
        [&](const hist::Expr *E) -> const contract::ContractSummary & {
      auto It = Summaries.find(E);
      if (It == Summaries.end())
        It = Summaries.emplace(E, contract::summarizeContract(Ctx, E)).first;
      return It->second;
    };
    std::map<std::pair<const hist::Expr *, const hist::Expr *>, bool> Memo;
    auto Compliant = [&](const hist::Expr *Body, const hist::Expr *Service) {
      if (contract::prescreenCompliance(Summary(Body), Summary(Service)) !=
          contract::PrescreenVerdict::Pass)
        return false;
      auto Key = std::make_pair(Body, Service);
      auto It = Memo.find(Key);
      if (It != Memo.end())
        return It->second;
      bool OK =
          static_cast<bool>(contract::checkServiceCompliance(Ctx, Body,
                                                             Service));
      Memo.emplace(Key, OK);
      return OK;
    };

    for (const BehaviorRef &B : allBehaviors(File)) {
      SourceLoc Loc = LC.declLoc(
          B.IsService ? File.ServiceLocs : File.ClientLocs, B.Name);
      for (const plan::RequestSite &Site :
           plan::extractRequests(B.Body)) {
        bool AnyCandidate = false;
        for (const auto &[L, Service] : File.Repo.services())
          if (Compliant(Site.body(), Service)) {
            AnyCandidate = true;
            break;
          }
        if (AnyCandidate)
          continue;
        LC.emit(id(), category(), Loc,
                "request " + std::to_string(Site.id()) + " in '" +
                    std::string(In.text(B.Name)) +
                    "' has no candidate service: none of the " +
                    std::to_string(File.Repo.size()) +
                    " published services is compliant with it");
      }
    }
  }
};

class DeadendReadySetsPass : public LintPass {
public:
  std::string_view id() const override {
    return "sus-lint-deadend-ready-sets";
  }
  std::string_view category() const override { return "lint.plan"; }
  std::string_view description() const override {
    return "declared plans with broken or immediately-stuck bindings";
  }

  void run(LintContext &LC) const override {
    hist::HistContext &Ctx = LC.context();
    const StringInterner &In = Ctx.interner();
    const syntax::SusFile &File = LC.file();

    // Every request site any behaviour opens, by identifier: a plan may
    // bind requests of the client *and* of the services it pulls in.
    std::map<hist::RequestId, std::vector<plan::RequestSite>> Sites;
    for (const BehaviorRef &B : allBehaviors(File))
      for (const plan::RequestSite &Site : plan::extractRequests(B.Body))
        Sites[Site.id()].push_back(Site);

    for (const syntax::PlanDecl &Decl : File.Plans) {
      SourceLoc Loc = Decl.Loc;
      std::string PlanName(In.text(Decl.Name));
      if (!File.findClient(Decl.Client)) {
        LC.emit(id(), category(), Loc,
                "plan '" + PlanName + "' is for unknown client '" +
                    std::string(In.text(Decl.Client)) + "'");
        continue;
      }
      for (const auto &[R, L] : Decl.Pi.bindings()) {
        const hist::Expr *Service = File.Repo.find(L);
        if (!Service) {
          LC.emit(id(), category(), Loc,
                  "plan '" + PlanName + "' binds request " +
                      std::to_string(R) + " to '" +
                      std::string(In.text(L)) +
                      "', which is not a published service");
          continue;
        }
        auto SiteIt = Sites.find(R);
        if (SiteIt == Sites.end()) {
          LC.emit(id(), category(), Loc,
                  "plan '" + PlanName + "' binds request " +
                      std::to_string(R) +
                      ", but no declared behaviour opens it");
          continue;
        }
        const hist::Expr *Cs = contract::project(Ctx, Service);
        if (!contract::isContract(Cs))
          continue;
        std::vector<contract::ReadySet> ServerSets =
            contract::readySets(Cs);
        for (const plan::RequestSite &Site : SiteIt->second) {
          const hist::Expr *Cc = contract::project(Ctx, Site.body());
          if (!contract::isContract(Cc))
            continue;
          bool Reported = false;
          for (const contract::ReadySet &C : contract::readySets(Cc)) {
            if (C.empty() || Reported)
              continue;
            for (const contract::ReadySet &S : ServerSets) {
              if (contract::canSynchronize(C, S))
                continue;
              Diagnostic *D = LC.emit(
                  id(), category(), Loc,
                  "plan '" + PlanName + "' binds request " +
                      std::to_string(R) + " to '" +
                      std::string(In.text(L)) +
                      "', but they can get stuck at the first step");
              if (D)
                D->note(SourceLoc{0, 0, LC.fileName()},
                        "the request may offer " + renderReadySet(C, In) +
                            " while '" + std::string(In.text(L)) +
                            "' offers " + renderReadySet(S, In) +
                            ": no synchronization is possible");
              Reported = true;
              break;
            }
            if (Reported)
              break;
          }
          if (Reported)
            break;
        }
      }
    }
  }
};

} // namespace

namespace sus {
namespace analysis {

const LintPass &noCandidateServicePass() {
  static const NoCandidateServicePass P;
  return P;
}

const LintPass &deadendReadySetsPass() {
  static const DeadendReadySetsPass P;
  return P;
}

} // namespace analysis
} // namespace sus
