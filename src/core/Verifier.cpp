//===- core/Verifier.cpp - The §5 verification procedure ------------------===//

#include "core/Verifier.h"

#include "plan/RequestExtract.h"
#include "support/Metrics.h"
#include "support/Trace.h"

using namespace sus;
using namespace sus::core;

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

Verifier::Verifier(hist::HistContext &Ctx, const plan::Repository &Repo,
                   const policy::PolicyRegistry &Registry,
                   VerifierOptions Options,
                   std::shared_ptr<VerifierCache> Cache)
    : Ctx(Ctx), Repo(Repo), Registry(Registry), Options(Options),
      Cache(Cache ? std::move(Cache) : std::make_shared<VerifierCache>()) {}

Verifier::~Verifier() = default;

//===----------------------------------------------------------------------===//
// Compliance
//===----------------------------------------------------------------------===//

bool Verifier::bindingCompliant(const hist::Expr *RequestBody,
                                const hist::Expr *Service) {
  // Screens refute only pairs the product would refute too, so a Reject
  // prunes conclusively whether or not a governor is armed.
  if (Cache->prescreen(Ctx, RequestBody, Service) !=
      contract::PrescreenVerdict::Pass)
    return false;
  return productCompliant(RequestBody, Service);
}

bool Verifier::productCompliant(const hist::Expr *RequestBody,
                                const hist::Expr *Service) {
  contract::ComplianceResult R =
      Cache->compliance(Ctx, RequestBody, Service, gov());
  // An exhausted product refutes nothing: keep the binding, so the
  // per-plan checks surface it as inconclusive instead of this pruning
  // silently shrinking the candidate set.
  return R.Compliant || R.Exhausted.has_value();
}

std::map<hist::RequestId, plan::RequestSite>
Verifier::collectPlanSites(const hist::Expr *Client,
                           const plan::Plan &Pi) const {
  // Collect the request sites of the composed service: the client's own
  // requests plus, transitively, those of every planned service.
  std::vector<plan::RequestSite> Sites = plan::extractRequests(Client);
  std::map<hist::RequestId, plan::RequestSite> ById;
  for (size_t I = 0; I < Sites.size(); ++I) {
    const plan::RequestSite &S = Sites[I];
    if (!ById.count(S.id()))
      ById.emplace(S.id(), S);
    if (std::optional<plan::Loc> L = Pi.lookup(S.id()))
      if (const hist::Expr *Service = Repo.find(*L))
        for (const plan::RequestSite &Nested :
             plan::extractRequests(Service)) {
          if (ById.count(Nested.id()))
            continue;
          Sites.push_back(Nested);
          ById.emplace(Nested.id(), Nested);
        }
  }
  return ById;
}

std::vector<RequestCheck> Verifier::buildRequestChecks(
    const std::map<hist::RequestId, plan::RequestSite> &ById,
    const plan::Plan &Pi) {
  std::vector<RequestCheck> Checks;
  Checks.reserve(ById.size());
  for (const auto &[Id, Site] : ById) {
    RequestCheck Check;
    Check.Request = Id;
    std::optional<plan::Loc> L = Pi.lookup(Id);
    if (!L || !Repo.find(*L)) {
      Check.Compliant = false;
      Checks.push_back(std::move(Check));
      continue;
    }
    Check.Service = *L;
    contract::ComplianceResult R =
        Cache->compliance(Ctx, Site.body(), Repo.find(*L), gov());
    Check.Compliant = R.Compliant;
    Check.Witness = std::move(R.Witness);
    Check.Exhausted = R.Exhausted;
    Checks.push_back(std::move(Check));
  }
  return Checks;
}

//===----------------------------------------------------------------------===//
// Security
//===----------------------------------------------------------------------===//

validity::StaticValidityResult Verifier::securityOf(const hist::Expr *Client,
                                                    plan::Loc ClientLoc,
                                                    const plan::Plan &Pi,
                                                    bool *CacheHit) {
  if (CacheHit)
    *CacheHit = false;
  validity::StaticValidityOptions VOpts;
  VOpts.MaxStates = Options.MaxStatesPerPlan;
  VOpts.Governor = gov();
  if (std::optional<validity::StaticValidityResult> Hit =
          Cache->findValidity(Client, ClientLoc, Pi, VOpts.MaxStates)) {
    if (CacheHit)
      *CacheHit = true;
    return *Hit;
  }
  validity::StaticValidityResult R = validity::checkPlanValidity(
      Ctx, Client, ClientLoc, Pi, Repo, Registry, VOpts);
  // A tripped exploration is not a verdict: record nothing, so the next
  // (possibly unbounded) lookup for this signature recomputes for real.
  if (R.Failure != validity::PlanFailureKind::ResourceExhausted)
    Cache->recordValidity(Client, ClientLoc, Pi, VOpts.MaxStates, R);
  return R;
}

//===----------------------------------------------------------------------===//
// Plan checking
//===----------------------------------------------------------------------===//

PlanVerdict Verifier::checkPlan(const hist::Expr *Client,
                                plan::Loc ClientLoc, const plan::Plan &Pi) {
  trace::Span Span("plan.verify", "verifier");
  PlanVerdict Verdict;
  Verdict.Pi = Pi;
  Verdict.RequestChecks = buildRequestChecks(collectPlanSites(Client, Pi), Pi);
  bool CacheHit = false;
  Verdict.Security = securityOf(Client, ClientLoc, Pi, &CacheHit);
  // The span carries one tag: a governor trip outranks the cache verdict
  // (a tripped path is never cached, so "miss" would say nothing anyway).
  if (std::optional<ResourceExhausted> E = Verdict.exhaustedReason())
    Span.tag("governor",
             E->deadlineLike() ? "deadline_exceeded" : "budget_exceeded");
  else
    Span.tag("cache", CacheHit ? "hit" : "miss");
  return Verdict;
}

const plan::ServiceIndex *Verifier::index() {
  if (!indexEffective())
    return nullptr;
  if (!Index)
    Index = std::make_unique<plan::ServiceIndex>(Ctx, Repo);
  return Index.get();
}

void Verifier::adoptIndex(std::unique_ptr<plan::ServiceIndex> Warm) {
  if (indexEffective())
    Index = std::move(Warm);
}

VerifierCache::EvictionStats
Verifier::applyDelta(const plan::RepositoryDelta &Delta) {
  VerifierCache::EvictionStats Evicted = Cache->invalidate(Delta, Repo);
  if (Index)
    Index->apply(Delta);
  return Evicted;
}

std::vector<PlanVerdict>
Verifier::checkPlans(const hist::Expr *Client, plan::Loc ClientLoc,
                     const std::vector<plan::Plan> &Plans) {
  std::vector<PlanVerdict> Verdicts;
  Verdicts.reserve(Plans.size());
  for (const plan::Plan &Pi : Plans)
    Verdicts.push_back(checkPlan(Client, ClientLoc, Pi));
  return Verdicts;
}

plan::EnumeratorOptions Verifier::enumeratorOptions() {
  plan::EnumeratorOptions EOpts;
  EOpts.MaxPlans = Options.MaxPlans;
  EOpts.Governor = gov();
  EOpts.Index = index();
  if (!Options.PruneWithCompliance)
    return EOpts;
  // Index candidates already passed the screens inside the index, so
  // only the scan screens per binding: the indexed path keeps no summary
  // lookup per candidate.
  EOpts.Filter = [this, Scan = EOpts.Index == nullptr](
                     const plan::RequestSite &Site, plan::Loc,
                     const hist::Expr *Service) {
    return Scan ? bindingCompliant(Site.body(), Service)
                : productCompliant(Site.body(), Service);
  };
  return EOpts;
}

VerificationReport Verifier::verifyClient(const hist::Expr *Client,
                                          plan::Loc ClientLoc) {
  trace::Span ClientSpan("client.verify", "verifier");
  VerificationReport Report;

  plan::EnumerationResult Enumeration =
      plan::enumeratePlans(Client, Repo, enumeratorOptions());
  Report.CandidateCount = Enumeration.Plans.size();
  Report.BindingsTried = Enumeration.BindingsTried;
  Report.Truncated = Enumeration.Truncated;
  Report.EnumerationExhausted = Enumeration.Exhausted;
  ClientSpan.count("candidates", static_cast<int64_t>(Report.CandidateCount));
  {
    static metrics::Counter &PlansChecked =
        metrics::counter("verifier.plans_checked");
    PlansChecked.add(Enumeration.Plans.size());
  }

  Report.Verdicts = checkPlans(Client, ClientLoc, Enumeration.Plans);
  return Report;
}

NetworkReport Verifier::verifyNetwork(
    const std::vector<std::pair<const hist::Expr *, plan::Loc>> &Clients) {
  NetworkReport Report;
  for (const auto &[Client, Loc] : Clients)
    Report.PerClient.push_back({Loc, verifyClient(Client, Loc)});
  return Report;
}

void sus::core::printReport(const VerificationReport &Report,
                            const hist::HistContext &Ctx, std::ostream &OS) {
  const StringInterner &In = Ctx.interner();
  OS << "candidate plans: " << Report.CandidateCount
     << " (bindings tried: " << Report.BindingsTried << ")";
  if (Report.Truncated)
    OS << " [truncated]";
  if (Report.EnumerationExhausted)
    OS << " [enumeration inconclusive: "
       << resourceKindName(Report.EnumerationExhausted->Which) << "]";
  OS << "\n";
  for (const PlanVerdict &V : Report.Verdicts) {
    OS << "  plan " << V.Pi.str(In) << ": ";
    if (V.isValid()) {
      OS << "VALID\n";
      continue;
    }
    if (V.inconclusive()) {
      std::optional<ResourceExhausted> E = V.exhaustedReason();
      OS << "Inconclusive(resource: "
         << (E ? resourceKindName(E->Which) : "unknown") << ")\n";
      continue;
    }
    OS << "invalid";
    for (const RequestCheck &C : V.RequestChecks)
      if (!C.Compliant && !C.Exhausted) {
        OS << " [request " << C.Request << " not compliant";
        if (C.Witness)
          OS << ": " << C.Witness->str(Ctx);
        OS << "]";
      }
    if (!V.Security.Valid) {
      OS << " [security: ";
      switch (V.Security.Failure) {
      case validity::PlanFailureKind::PolicyViolation:
        OS << "policy "
           << (V.Security.Policy ? V.Security.Policy->str(In) : "?")
           << " violated";
        break;
      case validity::PlanFailureKind::UnboundRequest:
        OS << "request "
           << (V.Security.Request ? std::to_string(*V.Security.Request)
                                  : "?")
           << " unbound";
        break;
      case validity::PlanFailureKind::UnknownService:
        OS << "unknown service";
        break;
      case validity::PlanFailureKind::UnknownPolicy:
        OS << "unknown policy";
        break;
      case validity::PlanFailureKind::StateSpaceExceeded:
        OS << "state space exceeded";
        break;
      case validity::PlanFailureKind::ResourceExhausted:
        // Only reachable when another check already refuted the plan:
        // the verdict is conclusively invalid, this leg just ran out.
        OS << "inconclusive (resource: "
           << (V.Security.Exhausted
                   ? resourceKindName(V.Security.Exhausted->Which)
                   : "unknown")
           << ")";
        break;
      case validity::PlanFailureKind::None:
        break;
      }
      OS << "]";
    }
    OS << "\n";
  }
  std::vector<plan::Plan> Valid = Report.validPlans();
  OS << "valid plans: " << Valid.size() << "\n";
  size_t Inconclusive = 0;
  for (const PlanVerdict &V : Report.Verdicts)
    if (V.inconclusive())
      ++Inconclusive;
  // Printed only when a governor actually tripped, so ungoverned output
  // is byte-identical to what it always was.
  if (Inconclusive > 0)
    OS << "inconclusive plans: " << Inconclusive << "\n";
}
