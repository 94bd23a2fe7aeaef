//===- core/VerifierCache.cpp - Shared verification memo tables -----------===//

#include "core/VerifierCache.h"

#include "support/Metrics.h"

using namespace sus;
using namespace sus::core;

namespace {

/// Registry mirrors of VerifierStats: the same counts, visible in every
/// --metrics-out report without threading the cache to the exporter.
struct HitMissCounters {
  metrics::Counter &Hits;
  metrics::Counter &Misses;
  void count(bool Hit) { (Hit ? Hits : Misses).add(); }
};

HitMissCounters &complianceCounters() {
  static HitMissCounters C{metrics::counter("verifier.cache.compliance.hits"),
                           metrics::counter(
                               "verifier.cache.compliance.misses")};
  return C;
}

HitMissCounters &projectionCounters() {
  static HitMissCounters C{metrics::counter("verifier.cache.projection.hits"),
                           metrics::counter(
                               "verifier.cache.projection.misses")};
  return C;
}

HitMissCounters &validityCounters() {
  static HitMissCounters C{metrics::counter("verifier.cache.validity.hits"),
                           metrics::counter(
                               "verifier.cache.validity.misses")};
  return C;
}

} // namespace

const hist::Expr *VerifierCache::projectionLocked(hist::HistContext &Ctx,
                                                  const hist::Expr *E) {
  ++Stats.ProjectionLookups;
  auto It = Projections.find(E);
  if (It != Projections.end()) {
    ++Stats.ProjectionHits;
    projectionCounters().count(true);
    return It->second;
  }
  projectionCounters().count(false);
  const hist::Expr *P = contract::project(Ctx, E);
  Projections.emplace(E, P);
  return P;
}

const hist::Expr *VerifierCache::projection(hist::HistContext &Ctx,
                                            const hist::Expr *E) {
  MutexLock Lock(M);
  return projectionLocked(Ctx, E);
}

contract::ComplianceResult
VerifierCache::compliance(hist::HistContext &Ctx,
                          const hist::Expr *RequestBody,
                          const hist::Expr *Service,
                          const ResourceGovernor *Gov) {
  MutexLock Lock(M);
  ++Stats.ComplianceLookups;
  auto Key = std::make_pair(RequestBody, Service);
  auto It = Compliances.find(Key);
  if (It != Compliances.end()) {
    ++Stats.ComplianceHits;
    complianceCounters().count(true);
    return It->second;
  }
  complianceCounters().count(false);
  contract::ComplianceResult R =
      contract::checkCompliance(Ctx, projectionLocked(Ctx, RequestBody),
                                projectionLocked(Ctx, Service), Gov);
  // An exhausted product yields no verdict: hand the inconclusive result
  // back but keep it out of the memo, so a later unbounded lookup
  // recomputes instead of resurfacing the budget trip as truth.
  if (!R.Exhausted)
    Compliances.emplace(Key, R);
  return R;
}

std::optional<validity::StaticValidityResult>
VerifierCache::findValidity(const hist::Expr *Client, plan::Loc ClientLoc,
                            const plan::Plan &Pi, size_t MaxStates) {
  MutexLock Lock(M);
  ++Stats.ValidityLookups;
  auto It = Validities.find(ValidityKey{Client, ClientLoc, Pi, MaxStates});
  if (It == Validities.end()) {
    validityCounters().count(false);
    return std::nullopt;
  }
  ++Stats.ValidityHits;
  validityCounters().count(true);
  return It->second;
}

void VerifierCache::recordValidity(const hist::Expr *Client,
                                   plan::Loc ClientLoc, const plan::Plan &Pi,
                                   size_t MaxStates,
                                   validity::StaticValidityResult Result) {
  // Exhausted results are partial: caching one would turn a transient
  // budget trip into a permanently wrong verdict for this plan signature.
  if (Result.Failure == validity::PlanFailureKind::ResourceExhausted) {
#ifdef SUS_AUDIT
    assert(false && "resource-exhausted validity result must not be cached");
#endif
    return;
  }
  MutexLock Lock(M);
  Validities.emplace(ValidityKey{Client, ClientLoc, Pi, MaxStates},
                     std::move(Result));
}

VerifierCache::EvictionStats
VerifierCache::invalidate(const plan::RepositoryDelta &Delta,
                          const plan::Repository &Current) {
  EvictionStats Evicted;
  if (Delta.empty())
    return Evicted;

  const std::set<plan::Loc> Touched = Delta.touched();

  // The retired service exprs: unpublished by this delta *and* not still
  // published at any surviving location (hash-consed exprs alias).
  std::set<const hist::Expr *> Retired;
  for (const plan::ServiceChange &C : Delta.Changes)
    if (C.Old)
      Retired.insert(C.Old);
  for (const auto &[Location, Service] : Current.services())
    Retired.erase(Service);

  MutexLock Lock(M);
  for (auto It = Validities.begin(); It != Validities.end();)
    if (plan::planMentions(It->first.Pi, Touched)) {
      It = Validities.erase(It);
      ++Evicted.ValidityEvicted;
    } else {
      ++It;
    }
  for (auto It = Compliances.begin(); It != Compliances.end();)
    if (Retired.count(It->first.second)) {
      It = Compliances.erase(It);
      ++Evicted.ComplianceEvicted;
    } else {
      ++It;
    }
  for (const hist::Expr *Old : Retired)
    Evicted.ProjectionEvicted += Projections.erase(Old);

  static metrics::Counter &ValidityEvictions =
      metrics::counter("plan.cache.validity_evictions");
  static metrics::Counter &ComplianceEvictions =
      metrics::counter("plan.cache.compliance_evictions");
  static metrics::Counter &ProjectionEvictions =
      metrics::counter("plan.cache.projection_evictions");
  ValidityEvictions.add(Evicted.ValidityEvicted);
  ComplianceEvictions.add(Evicted.ComplianceEvicted);
  ProjectionEvictions.add(Evicted.ProjectionEvicted);
  return Evicted;
}

VerifierStats VerifierCache::stats() const {
  MutexLock Lock(M);
  return Stats;
}

VerifierCache::Entries VerifierCache::exportEntries() const {
  MutexLock Lock(M);
  Entries Out;
  Out.Projections.reserve(Projections.size());
  for (const auto &[E, P] : Projections)
    Out.Projections.emplace_back(E, P);
  Out.Compliances.reserve(Compliances.size());
  for (const auto &[Key, R] : Compliances)
    Out.Compliances.push_back({Key.first, Key.second, R});
  Out.Validities.reserve(Validities.size());
  for (const auto &[Key, R] : Validities)
    Out.Validities.push_back({Key.Client, Key.Loc, Key.Pi, Key.MaxStates, R});
  return Out;
}

size_t VerifierCache::absorb(const Entries &E) {
  MutexLock Lock(M);
  size_t Inserted = 0;
  for (const auto &[Expr, Proj] : E.Projections)
    Inserted += Projections.emplace(Expr, Proj).second;
  for (const ComplianceEntry &C : E.Compliances) {
    if (C.Result.Exhausted)
      continue; // Inconclusive results never enter the memo.
    Inserted +=
        Compliances.emplace(std::make_pair(C.RequestBody, C.Service), C.Result)
            .second;
  }
  for (const ValidityEntry &V : E.Validities) {
    if (V.Result.Failure == validity::PlanFailureKind::ResourceExhausted)
      continue;
    Inserted += Validities
                    .emplace(ValidityKey{V.Client, V.ClientLoc, V.Pi,
                                         V.MaxStates},
                             V.Result)
                    .second;
  }
  return Inserted;
}
