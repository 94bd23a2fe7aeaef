//===- core/Verifier.cpp - The §5 verification procedure ------------------===//

#include "core/Verifier.h"

#include "hist/Clone.h"
#include "plan/RequestExtract.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <cassert>

using namespace sus;
using namespace sus::core;

//===----------------------------------------------------------------------===//
// Shards
//===----------------------------------------------------------------------===//

/// A worker-private copy of the verification inputs. The shard interner is
/// seeded from the session interner first, so every symbol keeps its id and
/// every canonical Symbol-based ordering (choice-branch sorting, derivative
/// enumeration) coincides with the session's — which is why a shard's
/// exploration reproduces the serial one bit-for-bit.
struct Verifier::Shard {
  hist::HistContext Ctx;
  const hist::Expr *Client = nullptr;
  plan::Repository Repo;

  Shard(const hist::HistContext &Main, const hist::Expr *MainClient,
        const plan::Repository &MainRepo) {
    const StringInterner &From = Main.interner();
    Ctx.interner().seedFrom(From);
    Client = hist::cloneExpr(Ctx, From, MainClient);
    for (const auto &[Loc, Service] : MainRepo.services())
      Repo.add(hist::cloneSymbol(Ctx, From, Loc),
               hist::cloneExpr(Ctx, From, Service), MainRepo.capacity(Loc));
  }
};

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

unsigned Verifier::effectiveJobs() const {
  return Options.Jobs == 0 ? ThreadPool::defaultWorkers() : Options.Jobs;
}

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

namespace {

/// The security verdict of a plan whose exploration never ran (or never
/// finished) because of a governor trip.
validity::StaticValidityResult exhaustedValidity(const ResourceExhausted &E) {
  validity::StaticValidityResult R;
  R.Valid = false;
  R.Failure = validity::PlanFailureKind::ResourceExhausted;
  R.Exhausted = E;
  return R;
}

} // namespace

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

std::vector<PlanVerdict>
Verifier::checkPlansParallel(const hist::Expr *Client, plan::Loc ClientLoc,
                             const std::vector<plan::Plan> &Plans,
                             unsigned Jobs) {
  validity::StaticValidityOptions VOpts;
  VOpts.MaxStates = Options.MaxStatesPerPlan;
  VOpts.Governor = gov();

  // Stage 1 (serial, session context): request-site collection and
  // compliance pre-warming. After this loop every (body, service) pair of
  // every plan sits in the cache with its witness, so no worker ever
  // needs the session HistContext for compliance.
  std::vector<std::map<hist::RequestId, plan::RequestSite>> Sites;
  Sites.reserve(Plans.size());
  {
    trace::Span PrewarmSpan("plan.prewarm", "verifier");
    PrewarmSpan.count("plans", static_cast<int64_t>(Plans.size()));
    for (const plan::Plan &Pi : Plans) {
      Sites.push_back(collectPlanSites(Client, Pi));
      for (const auto &[Id, Site] : Sites.back()) {
        std::optional<plan::Loc> L = Pi.lookup(Id);
        if (L && Repo.find(*L))
          Cache->compliance(Ctx, Site.body(), Repo.find(*L), gov());
      }
    }
  }

  // Stage 2: resolve security verdicts from the cache; fan the misses out
  // over per-worker shards. Results are slotted by plan index, so the
  // report order is the enumeration order regardless of scheduling.
  std::vector<std::optional<validity::StaticValidityResult>> Security(
      Plans.size());
  std::vector<size_t> Misses;
  for (size_t I = 0; I < Plans.size(); ++I) {
    Security[I] =
        Cache->findValidity(Client, ClientLoc, Plans[I], VOpts.MaxStates);
    if (!Security[I])
      Misses.push_back(I);
  }

  if (!Misses.empty()) {
    trace::Span FanoutSpan("plan.fanout", "verifier");
    FanoutSpan.count("misses", static_cast<int64_t>(Misses.size()));
    if (!Pool || Pool->numWorkers() != Jobs)
      Pool = std::make_unique<ThreadPool>(Jobs);

    // Shards are created lazily by the first task each worker runs; a
    // worker executes one task at a time, so its slot needs no lock, and
    // waitIdle() orders every write below before the main thread reads.
    std::vector<std::unique_ptr<Shard>> Shards(Pool->numWorkers());
    for (size_t I : Misses)
      Pool->submit([&, I](unsigned Worker) {
        trace::Span PlanSpan("plan.verify", "verifier");
        // Poll-first: a task starting after a sticky deadline/cancel trip
        // does no exploration and just reports the trip.
        if (const ResourceGovernor *Gov = gov())
          if (std::optional<ResourceExhausted> E = Gov->trip()) {
            PlanSpan.tag("governor", E->deadlineLike() ? "deadline_exceeded"
                                                       : "budget_exceeded");
            Security[I] = exhaustedValidity(*E);
            return;
          }
        PlanSpan.tag("cache", "miss");
        if (!Shards[Worker])
          Shards[Worker] = std::make_unique<Shard>(Ctx, Client, Repo);
        Shard &S = *Shards[Worker];
        Security[I] = validity::checkPlanValidity(
            S.Ctx, S.Client, ClientLoc, Plans[I], S.Repo, Registry, VOpts);
        // Sticky trips doom every queued sibling too: drain the backlog in
        // one motion rather than letting each task rediscover the trip.
        if (Security[I]->Failure ==
                validity::PlanFailureKind::ResourceExhausted &&
            Security[I]->Exhausted && Security[I]->Exhausted->deadlineLike())
          Pool->cancelPending();
      });
    Pool->waitIdle();

    for (size_t I : Misses) {
      if (!Security[I]) {
        // This task was discarded by cancelPending(): synthesize its
        // verdict from the sticky trip that triggered the drain.
        std::optional<ResourceExhausted> E =
            gov() ? gov()->trip() : std::nullopt;
        Security[I] = exhaustedValidity(
            E ? *E : ResourceExhausted{ResourceKind::Cancelled, 0, 0});
      }
      // Tripped explorations stay out of the cache (see securityOf).
      if (Security[I]->Failure !=
          validity::PlanFailureKind::ResourceExhausted)
        Cache->recordValidity(Client, ClientLoc, Plans[I], VOpts.MaxStates,
                              *Security[I]);
    }
  }

  // Stage 3 (serial): assemble verdicts in enumeration order.
  std::vector<PlanVerdict> Verdicts(Plans.size());
  for (size_t I = 0; I < Plans.size(); ++I) {
    Verdicts[I].Pi = Plans[I];
    Verdicts[I].RequestChecks = buildRequestChecks(Sites[I], Plans[I]);
    Verdicts[I].Security = std::move(*Security[I]);
  }
  return Verdicts;
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
  unsigned Jobs = effectiveJobs();
  if (Jobs > 1 && Plans.size() > 1)
    return checkPlansParallel(Client, ClientLoc, Plans, Jobs);
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
