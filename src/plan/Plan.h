//===- plan/Plan.h - Plans and service repositories -------------*- C++ -*-===//
///
/// \file
/// Definition 2's orchestration data: a *plan* π maps request identifiers
/// to the locations of the services chosen to serve them (π ::= ∅ | r[ℓ] |
/// π ∪ π′), and a *repository* R = {ℓj : Hj} publishes the services
/// available for joining sessions.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_PLAN_PLAN_H
#define SUS_PLAN_PLAN_H

#include "hist/Expr.h"
#include "hist/HistContext.h"

#include <cassert>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sus {
namespace plan {

/// A service location ℓ ∈ Loc.
using Loc = Symbol;

/// A plan π: a finite map from request identifiers to locations.
class Plan {
public:
  Plan() = default;

  /// Binds r[ℓ]. The request must be *fresh*: the bind/undo searches rely
  /// on bind and unbind being symmetric, which a silent replacement breaks
  /// (the undo would erase the older binding instead of restoring it).
  /// Use rebind() when replacement is the point.
  void bind(hist::RequestId Request, Loc Location) {
    assert(!Binding.count(Request) &&
           "bind would silently replace an existing binding; use rebind");
    Binding[Request] = Location;
  }

  /// Replaces (or creates) the binding of r, returning the previous
  /// location so the caller can undo by rebinding it back.
  std::optional<Loc> rebind(hist::RequestId Request, Loc Location) {
    std::optional<Loc> Previous;
    auto It = Binding.find(Request);
    if (It != Binding.end())
      Previous = It->second;
    Binding[Request] = Location;
    return Previous;
  }

  /// Removes the binding of r (no-op when the plan does not cover r).
  /// Lets backtracking searches undo a bind instead of copying the plan.
  void unbind(hist::RequestId Request) { Binding.erase(Request); }

  /// π(r), or std::nullopt when the plan does not cover r.
  std::optional<Loc> lookup(hist::RequestId Request) const {
    auto It = Binding.find(Request);
    if (It == Binding.end())
      return std::nullopt;
    return It->second;
  }

  bool covers(hist::RequestId Request) const {
    return Binding.count(Request) != 0;
  }

  size_t size() const { return Binding.size(); }
  const std::map<hist::RequestId, Loc> &bindings() const { return Binding; }

  /// π ∪ π′ (right-biased on conflicts).
  Plan merge(const Plan &Other) const {
    Plan Result = *this;
    for (const auto &[R, L] : Other.Binding)
      Result.Binding[R] = L;
    return Result;
  }

  friend bool operator==(const Plan &A, const Plan &B) {
    return A.Binding == B.Binding;
  }
  friend bool operator<(const Plan &A, const Plan &B) {
    return A.Binding < B.Binding;
  }

  /// Renders as "{1 -> br, 3 -> s3}".
  std::string str(const StringInterner &Interner) const;

private:
  std::map<hist::RequestId, Loc> Binding;
};

/// The global trusted repository R of published services.
///
/// The paper assumes services "can replicate themselves unboundedly many
/// times" and lists bounded availability as future work (§5); a published
/// service may therefore carry a replication capacity: the number of
/// sessions it can serve concurrently (0 = unbounded, the paper's
/// default). The interpreter enforces capacities at run time.
class Repository {
public:
  /// Publishes \p Service at \p Location (replacing any previous one).
  /// \p Capacity bounds concurrent sessions; 0 means unbounded.
  /// Publishing in key order, as a parsed file does, costs amortized
  /// constant time: the end() hint is right whenever the key sorts last.
  void add(Loc Location, const hist::Expr *Service, unsigned Capacity = 0) {
    Services.insert_or_assign(Services.end(), Location, Service);
    if (Capacity != 0)
      Capacities.insert_or_assign(Capacities.end(), Location, Capacity);
    else if (!Capacities.empty())
      Capacities.erase(Location);
  }

  /// The replication capacity of ℓ (0 = unbounded).
  unsigned capacity(Loc Location) const {
    auto It = Capacities.find(Location);
    return It == Capacities.end() ? 0 : It->second;
  }

  /// Withdraws the publication at \p Location (no-op when absent).
  /// Returns the service that was published there, or null.
  const hist::Expr *remove(Loc Location) {
    auto It = Services.find(Location);
    if (It == Services.end())
      return nullptr;
    const hist::Expr *Old = It->second;
    Services.erase(It);
    Capacities.erase(Location);
    return Old;
  }

  /// The service at ℓ, or null.
  const hist::Expr *find(Loc Location) const {
    auto It = Services.find(Location);
    return It == Services.end() ? nullptr : It->second;
  }

  size_t size() const { return Services.size(); }

  /// All published locations, in deterministic order.
  std::vector<Loc> locations() const {
    std::vector<Loc> Out;
    Out.reserve(Services.size());
    for (const auto &[L, S] : Services)
      Out.push_back(L);
    return Out;
  }

  const std::map<Loc, const hist::Expr *> &services() const {
    return Services;
  }

private:
  std::map<Loc, const hist::Expr *> Services;
  std::map<Loc, unsigned> Capacities;
};

} // namespace plan
} // namespace sus

#endif // SUS_PLAN_PLAN_H
