//===- plan/ServiceIndex.cpp - Indexed candidate selection ----------------===//

#include "plan/ServiceIndex.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <iterator>

using namespace sus;
using namespace sus::hist;
using namespace sus::plan;

namespace {

metrics::Counter &lookupsCounter() {
  static metrics::Counter &C = metrics::counter("plan.index.lookups");
  return C;
}
metrics::Counter &hitsCounter() {
  static metrics::Counter &C = metrics::counter("plan.index.hits");
  return C;
}
metrics::Counter &missesCounter() {
  static metrics::Counter &C = metrics::counter("plan.index.misses");
  return C;
}
metrics::Counter &candidatesCounter() {
  static metrics::Counter &C = metrics::counter("plan.index.candidates");
  return C;
}
metrics::Counter &alphabetRejectsCounter() {
  static metrics::Counter &C =
      metrics::counter("plan.prescreen.alphabet_rejects");
  return C;
}
metrics::Counter &firstStepRejectsCounter() {
  static metrics::Counter &C =
      metrics::counter("plan.prescreen.first_step_rejects");
  return C;
}
metrics::Counter &updatesCounter() {
  static metrics::Counter &C = metrics::counter("plan.index.updates");
  return C;
}

/// Keeps \p Locs sorted and duplicate-free. The builds insert in
/// location order, so this is an append there.
void insertSorted(std::vector<Loc> &Locs, Loc Location) {
  if (Locs.empty() || Locs.back() < Location) {
    Locs.push_back(Location);
    return;
  }
  auto It = std::lower_bound(Locs.begin(), Locs.end(), Location);
  if (*It != Location)
    Locs.insert(It, Location);
}

void eraseSorted(std::vector<Loc> &Locs, Loc Location) {
  auto It = std::lower_bound(Locs.begin(), Locs.end(), Location);
  if (It != Locs.end() && *It == Location)
    Locs.erase(It);
}

} // namespace

ServiceIndex::ServiceIndex(HistContext &Ctx, const Repository &Repo)
    : Ctx(Ctx) {
  trace::Span Span("plan.index.build", "verifier");
  MutexLock Lock(M);
  for (const auto &[Location, Service] : Repo.services())
    insertLocked(Location, Service);
  ++Stats.Rebuilds;
}

ServiceIndex::ServiceIndex(HistContext &Ctx, const Repository &Repo,
                           const std::vector<SnapshotEntry> &Warm)
    : Ctx(Ctx) {
  trace::Span Span("plan.index.build", "verifier");
  std::map<std::pair<Loc, const Expr *>, const contract::ContractSummary *>
      ByKey;
  for (const SnapshotEntry &E : Warm)
    ByKey.emplace(std::make_pair(E.Location, E.Service), &E.Summary);
  MutexLock Lock(M);
  for (const auto &[Location, Service] : Repo.services()) {
    auto It = ByKey.find(std::make_pair(Location, Service));
    if (It != ByKey.end())
      installLocked(Location, Service, *It->second);
    else
      insertLocked(Location, Service);
  }
  ++Stats.Rebuilds;
}

std::vector<ServiceIndex::SnapshotEntry> ServiceIndex::snapshotEntries()
    const {
  MutexLock Lock(M);
  std::vector<SnapshotEntry> Out;
  Out.reserve(Entries.size());
  for (const auto &[Location, E] : Entries)
    Out.push_back({Location, E.Service, E.Summary});
  return Out;
}

void ServiceIndex::insertLocked(Loc Location, const Expr *Service) {
  installLocked(Location, Service, contract::summarizeContract(Ctx, Service));
}

void ServiceIndex::installLocked(Loc Location, const Expr *Service,
                                 contract::ContractSummary Summary) {
  Entry E;
  E.Service = Service;
  E.Summary = std::move(Summary);
  if (!E.Summary.Screenable) {
    insertSorted(Unscreened, Location);
  } else {
    for (const contract::ReadySet &S : E.Summary.InitialSets)
      for (const CommAction &A : S)
        insertSorted(Buckets[A.complement()], Location);
  }
  Entries[Location] = std::move(E);
}

void ServiceIndex::removeLocked(Loc Location) {
  auto It = Entries.find(Location);
  if (It == Entries.end())
    return;
  const Entry &E = It->second;
  if (!E.Summary.Screenable) {
    eraseSorted(Unscreened, Location);
  } else {
    for (const contract::ReadySet &S : E.Summary.InitialSets)
      for (const CommAction &A : S) {
        auto BIt = Buckets.find(A.complement());
        if (BIt == Buckets.end())
          continue;
        eraseSorted(BIt->second, Location);
        if (BIt->second.empty())
          Buckets.erase(BIt);
      }
  }
  Entries.erase(It);
}

std::vector<Loc> ServiceIndex::candidates(const Expr *RequestBody) const {
  MutexLock Lock(M);
  ++Stats.Lookups;
  lookupsCounter().add(1);

  auto MemoIt = Memo.find(RequestBody);
  if (MemoIt != Memo.end()) {
    ++Stats.Hits;
    hitsCounter().add(1);
    Stats.Candidates += MemoIt->second.size();
    candidatesCounter().add(MemoIt->second.size());
    return MemoIt->second;
  }
  missesCounter().add(1);

  auto BodyIt = Bodies.find(RequestBody);
  if (BodyIt == Bodies.end())
    BodyIt = Bodies
                 .emplace(RequestBody,
                          contract::summarizeContract(Ctx, RequestBody))
                 .first;
  const contract::ContractSummary &Body = BodyIt->second;

  // Buckets are sorted by location, exactly like Repository::services(),
  // so their merged union is a subsequence of the full scan.
  std::vector<Loc> Selected;
  if (!Body.Screenable || !Body.NeedsSync) {
    // No non-empty initial ready set to key on: every location is a
    // candidate (and the pre-screens below cannot reject anything).
    Selected.reserve(Entries.size());
    for (const auto &[Location, E] : Entries)
      Selected.push_back(Location);
  } else {
    Selected = Unscreened;
    for (const CommAction &C : Body.IndexKey) {
      auto BIt = Buckets.find(C);
      if (BIt == Buckets.end())
        continue;
      std::vector<Loc> Merged;
      Merged.reserve(Selected.size() + BIt->second.size());
      std::set_union(Selected.begin(), Selected.end(), BIt->second.begin(),
                     BIt->second.end(), std::back_inserter(Merged));
      Selected = std::move(Merged);
    }
  }

  std::vector<Loc> Out;
  Out.reserve(Selected.size());
  for (Loc Location : Selected) {
    const Entry &E = Entries.at(Location);
    switch (contract::prescreenCompliance(Body, E.Summary)) {
    case contract::PrescreenVerdict::Pass:
      Out.push_back(Location);
      break;
    case contract::PrescreenVerdict::AlphabetReject:
      ++Stats.AlphabetRejects;
      alphabetRejectsCounter().add(1);
      break;
    case contract::PrescreenVerdict::FirstStepReject:
      ++Stats.FirstStepRejects;
      firstStepRejectsCounter().add(1);
      break;
    }
  }

  Stats.Candidates += Out.size();
  candidatesCounter().add(Out.size());
  Memo.emplace(RequestBody, Out);
  return Out;
}

void ServiceIndex::apply(const RepositoryDelta &Delta) {
  MutexLock Lock(M);
  for (const ServiceChange &C : Delta.Changes) {
    removeLocked(C.Location);
    if (C.New)
      insertLocked(C.Location, C.New);
    ++Stats.Rebuilds;
    updatesCounter().add(1);
  }
  // Candidate lists mention locations, so churn invalidates them all; the
  // body summaries stay (they are keyed on immutable hash-consed exprs).
  Memo.clear();
}

size_t ServiceIndex::size() const {
  MutexLock Lock(M);
  return Entries.size();
}

IndexStats ServiceIndex::stats() const {
  MutexLock Lock(M);
  return Stats;
}
