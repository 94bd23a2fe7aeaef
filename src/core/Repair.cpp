//===- core/Repair.cpp - Incremental plan repair --------------------------===//

#include "core/Repair.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>

using namespace sus;
using namespace sus::core;

namespace {

void sortByPlan(std::vector<PlanVerdict> &Verdicts) {
  std::sort(Verdicts.begin(), Verdicts.end(),
            [](const PlanVerdict &A, const PlanVerdict &B) {
              return A.Pi < B.Pi;
            });
}

void countRepair(const RepairStats &Stats) {
  static metrics::Counter &Runs = metrics::counter("plan.repair.runs");
  static metrics::Counter &Kept = metrics::counter("plan.repair.plans_kept");
  static metrics::Counter &Dropped =
      metrics::counter("plan.repair.plans_dropped");
  static metrics::Counter &Reverified =
      metrics::counter("plan.repair.plans_reverified");
  Runs.add(1);
  Kept.add(Stats.PlansKept);
  Dropped.add(Stats.PlansDropped);
  Reverified.add(Stats.PlansReverified);
}

} // namespace

const VerificationReport &RepairSession::verify() {
  Current = V.verifyClient(Client, ClientLoc);
  sortByPlan(Current.Verdicts);
  Verified = true;
  return Current;
}

Outcome<RepairStats> RepairSession::applyDelta(
    const plan::RepositoryDelta &Delta) {
  trace::Span Span("plan.repair", "verifier");

  // The caches/index must absorb the churn even when there is no baseline
  // yet — the verifier's state has to match its repository regardless.
  RepairStats Stats;
  Stats.Evicted = V.applyDelta(Delta);

  if (!Verified) {
    // No baseline to patch: this "repair" is the initial verification.
    verify();
    Stats.PlansReverified = Current.Verdicts.size();
    countRepair(Stats);
    if (Current.EnumerationExhausted)
      return *Current.EnumerationExhausted;
    return Stats;
  }

  const std::set<plan::Loc> Touched = Delta.touched();

  // Keep every verdict whose plan binds no touched location: none of its
  // compliance pairs or its security exploration involved the change.
  std::vector<PlanVerdict> Kept;
  Kept.reserve(Current.Verdicts.size());
  for (PlanVerdict &Verdict : Current.Verdicts) {
    if (plan::planMentions(Verdict.Pi, Touched))
      ++Stats.PlansDropped;
    else
      Kept.push_back(std::move(Verdict));
  }
  Stats.PlansKept = Kept.size();

  // Re-run bind/undo search, emitting only plans that bind a touched
  // location — the kept set is exactly the complete plans that don't, so
  // kept ∪ emitted is the full post-churn plan set.
  plan::EnumeratorOptions EOpts = V.enumeratorOptions();
  EOpts.MustMention = &Touched;
  plan::EnumerationResult Enumeration =
      plan::enumeratePlans(Client, V.repository(), EOpts);
  Span.count("affected", static_cast<int64_t>(Enumeration.Plans.size()));

  if (Enumeration.Exhausted) {
    // The search was cut short: the kept verdicts still stand, but the
    // affected plans are unknown — the report is inconclusive, not wrong.
    Current.Verdicts = std::move(Kept);
    Current.CandidateCount = Current.Verdicts.size();
    Current.BindingsTried = Enumeration.BindingsTried;
    Current.Truncated = false;
    Current.EnumerationExhausted = Enumeration.Exhausted;
    countRepair(Stats);
    return *Enumeration.Exhausted;
  }

  std::vector<PlanVerdict> Repaired =
      V.checkPlans(Client, ClientLoc, Enumeration.Plans);
  Stats.PlansReverified = Repaired.size();

  // A cut-short *verdict* (not enumeration) also makes the round
  // inconclusive: surface the first trip so callers on the Outcome path
  // don't mistake a budget-shaped report for a verified one. (Cut-short
  // results were never cached, so a later repair recomputes them.)
  std::optional<ResourceExhausted> Tripped;
  for (const PlanVerdict &Verdict : Repaired)
    if (Verdict.inconclusive()) {
      Tripped = Verdict.exhaustedReason();
      break;
    }

  Current.Verdicts = std::move(Kept);
  for (PlanVerdict &Verdict : Repaired)
    Current.Verdicts.push_back(std::move(Verdict));
  sortByPlan(Current.Verdicts);
  Current.CandidateCount = Current.Verdicts.size();
  Current.BindingsTried = Enumeration.BindingsTried;
  Current.Truncated = Enumeration.Truncated;
  Current.EnumerationExhausted = std::nullopt;

  countRepair(Stats);
  if (Tripped)
    return *Tripped;
  return Stats;
}
