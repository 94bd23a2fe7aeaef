//===- plan/PlanEnumerator.cpp - Candidate plan enumeration ---------------===//

#include "plan/PlanEnumerator.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <map>
#include <set>

using namespace sus;
using namespace sus::hist;
using namespace sus::plan;

namespace {

/// Depth-first enumeration over a *single* mutable plan, pending stack and
/// seen set: each binding is applied, explored and undone in place, so per
/// step the only allocation is for emitted complete plans — not one deep
/// copy of the whole search state per repository entry.
class Enumerator {
public:
  Enumerator(const Repository &Repo, const EnumeratorOptions &Options,
             EnumerationResult &Result)
      : Repo(Repo), Options(Options), Result(Result) {}

  void run(const Expr *Client) {
    Pending = extractRequests(Client);
    for (const RequestSite &S : Pending)
      Seen.insert(S.id());
    search();
  }

private:
  /// The requests of \p Service, memoized: the same service is chased once
  /// per enumeration instead of once per visited branch.
  const std::vector<RequestSite> &requestsOf(const Expr *Service) {
    auto It = ServiceRequests.find(Service);
    if (It != ServiceRequests.end())
      return It->second;
    return ServiceRequests.emplace(Service, extractRequests(Service))
        .first->second;
  }

  void search() {
    if (Result.Truncated || Result.Exhausted)
      return;
    if (Options.Governor) {
      if (std::optional<ResourceExhausted> E = Options.Governor->poll()) {
        Result.Exhausted = E;
        Result.Stop = StopReason::Resources;
        return;
      }
    }
    if (Pending.empty()) {
      // Repair mode: a complete plan not binding any touched location is
      // one the caller already has a verdict for — don't re-emit it (and
      // don't let it count against MaxPlans).
      if (Options.MustMention &&
          !planMentions(Current, *Options.MustMention))
        return;
      if (Result.Plans.size() >= Options.MaxPlans) {
        Result.Truncated = true;
        Result.Stop = StopReason::PlanLimit;
        return;
      }
      Result.Plans.push_back(Current);
      return;
    }

    RequestSite Site = Pending.back();
    Pending.pop_back();

    if (Current.covers(Site.id())) {
      // Already bound on this branch (shared id, e.g. a recursive
      // service); keep the existing binding.
      search();
    } else if (Options.Index && !Options.VisitEveryService) {
      // Indexed candidate selection: only the locations whose published
      // contract could possibly comply, in the same (sorted-by-location)
      // order the scan below visits them.
      for (Loc Location : Options.Index->candidates(Site.body())) {
        const Expr *Service = Repo.find(Location);
        if (!Service)
          continue; // Index ahead of the repository; skip defensively.
        ++Result.BindingsTried;
        if (!tryBinding(Site, Location, Service))
          break;
      }
    } else {
      // The scan visits every published service. With an index, a merge
      // walk against its sorted candidate list tries only the candidates.
      std::vector<Loc> Candidates;
      if (Options.Index)
        Candidates = Options.Index->candidates(Site.body());
      auto Next = Candidates.begin();
      for (const auto &[Location, Service] : Repo.services()) {
        ++Result.BindingsTried;
        if (Options.Index) {
          while (Next != Candidates.end() && *Next < Location)
            ++Next;
          if (Next == Candidates.end() || *Next != Location)
            continue;
        }
        if (!tryBinding(Site, Location, Service))
          break;
      }
    }

    Pending.push_back(Site);
  }

  /// Applies one candidate binding, recurses, undoes it. Returns false
  /// when the search is over (limit or budget) and the caller should stop
  /// trying further candidates for this site.
  bool tryBinding(const RequestSite &Site, Loc Location,
                  const Expr *Service) {
    if (Options.Filter && !Options.Filter(Site, Location, Service))
      return true;

    Current.bind(Site.id(), Location);

    // Chase the chosen service's own requests.
    size_t Added = 0;
    for (const RequestSite &S : requestsOf(Service))
      if (Seen.insert(S.id()).second) {
        Pending.push_back(S);
        ++Added;
      }

    search();

    // Undo: drop the chased requests and the binding.
    for (; Added > 0; --Added) {
      Seen.erase(Pending.back().id());
      Pending.pop_back();
    }
    Current.unbind(Site.id());
    return !Result.Truncated && !Result.Exhausted;
  }

  const Repository &Repo;
  const EnumeratorOptions &Options;
  EnumerationResult &Result;

  Plan Current;
  std::vector<RequestSite> Pending;
  std::set<RequestId> Seen;
  std::map<const Expr *, std::vector<RequestSite>> ServiceRequests;
};

} // namespace

EnumerationResult sus::plan::enumeratePlans(const Expr *Client,
                                            const Repository &Repo,
                                            const EnumeratorOptions &Options) {
  EnumerationResult Result;
  trace::Span Span("plan.enumerate", "verifier");
  Enumerator E(Repo, Options, Result);
  E.run(Client);
  Span.count("plans", static_cast<int64_t>(Result.Plans.size()));
  static metrics::Counter &Bindings =
      metrics::counter("plan.enumerator.bindings_tried");
  static metrics::Counter &Plans = metrics::counter("plan.enumerator.plans");
  Bindings.add(Result.BindingsTried);
  Plans.add(Result.Plans.size());
  return Result;
}
