//===- plan/PlanEnumerator.h - Candidate plan enumeration -------*- C++ -*-===//
///
/// \file
/// Enumerates the candidate plans for a client over a repository: every
/// request of the client is bound to a published location, and requests are
/// chased *transitively* — binding r[ℓ] adds ℓ's own requests to the
/// worklist (the paper's broker opens request 3 on behalf of the client's
/// request 1). A filter hook allows early pruning (e.g. discard bindings
/// whose contracts are not compliant) before the exponential blow-up.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_PLAN_PLANENUMERATOR_H
#define SUS_PLAN_PLANENUMERATOR_H

#include "plan/Plan.h"
#include "plan/RequestExtract.h"
#include "plan/ServiceIndex.h"
#include "support/ResourceGovernor.h"

#include <functional>
#include <optional>
#include <set>
#include <vector>

namespace sus {
namespace plan {

/// Tuning knobs for enumeration.
struct EnumeratorOptions {
  /// Stop after this many complete plans.
  size_t MaxPlans = 1 << 16;

  /// Optional pruning predicate: return false to reject binding
  /// \p Site -> \p Location (whose published service is \p Service).
  std::function<bool(const RequestSite &Site, Loc Location,
                     const hist::Expr *Service)>
      Filter;

  /// Optional resource governor: polled once per search node. Not owned.
  const ResourceGovernor *Governor = nullptr;

  /// Optional candidate index: per request, try only the locations the
  /// index proposes (sorted by location, so the search tries them in the
  /// same order a full Repository scan would) instead of every published
  /// service. The index only drops statically non-compliant bindings, so
  /// with a compliance Filter installed the emitted plan set is identical
  /// to a scan's. Not owned; must describe the same repository.
  const ServiceIndex *Index = nullptr;

  /// With an Index: still walk every published service in location order
  /// and count each in BindingsTried, as a scan does, but try only the
  /// index's candidates; a non-candidate is rejected by its absence from
  /// the candidate list. The same bindings are tried in the same order
  /// either way; only BindingsTried differs.
  bool VisitEveryService = false;

  /// Optional emission filter for incremental repair: when set, only
  /// complete plans binding at least one of these locations are emitted
  /// (the untouched plans are the ones a repair session kept). Does not
  /// affect which bindings are *searched*, only which plans surface.
  const std::set<Loc> *MustMention = nullptr;
};

/// Why enumeration stopped.
enum class StopReason : uint8_t {
  Completed, ///< Search space exhausted: the plan set is complete.
  PlanLimit, ///< Hit MaxPlans: complete plans beyond the cap were cut.
  Resources, ///< Governor trip: the search itself was cut short.
};

/// Result of enumeration.
struct EnumerationResult {
  std::vector<Plan> Plans;
  bool Truncated = false;  ///< Hit MaxPlans (== Stop == PlanLimit).
  size_t BindingsTried = 0; ///< Bindings visited (for the B3 benchmark).
  /// Distinguishes "the limit cut emission" (PlanLimit) from "the budget
  /// cut the search" (Resources): the two need different reactions —
  /// raise MaxPlans vs. raise the budget — and were previously ambiguous.
  StopReason Stop = StopReason::Completed;
  /// Set when the governor stopped the search: Plans holds only the plans
  /// found so far (a partial candidate set, distinct from Truncated).
  std::optional<ResourceExhausted> Exhausted;
};

/// Enumerates complete plans for \p Client over \p Repo.
EnumerationResult enumeratePlans(const hist::Expr *Client,
                                 const Repository &Repo,
                                 const EnumeratorOptions &Options = {});

} // namespace plan
} // namespace sus

#endif // SUS_PLAN_PLANENUMERATOR_H
