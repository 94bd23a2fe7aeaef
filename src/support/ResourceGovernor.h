//===- support/ResourceGovernor.h - Deadlines, budgets, cancel --*- C++ -*-===//
///
/// \file
/// Cooperative resource governance for the verification pipeline: one
/// governor object carries a monotonic deadline, a product-state budget
/// and a cancellation token, and is threaded (as a nullable pointer — a
/// null governor costs one branch) through every unbounded loop of the
/// compliance product, plan enumeration and static validity.
///
/// The protocol has two verbs:
///
///  - poll()   — called at loop granularity; checks the cancellation flag
///               and (amortized over a tick stride) the deadline clock.
///               Deadline and cancellation trips are *sticky*: once
///               observed, every later poll on the same governor fails
///               fast, so every remaining check of a run stops promptly.
///  - charge() — called when an exploration is about to materialize its
///               Spent-th product state; checks Spent against the
///               budget. Budget trips are *per call*: one oversized plan
///               tripping its product budget does not poison the
///               verdicts of its siblings.
///
/// Exhaustion never throws. Each layer reports a typed
/// ResourceExhausted{Which, Spent, Limit} in its own result struct
/// (ComplianceResult, StaticValidityResult, EnumerationResult; repair
/// returns an Outcome<RepairStats>), and the layers above map it into an
/// Inconclusive(resource) verdict while keeping caches free of partial
/// results.
///
/// Trips are counted in the metrics registry (`governor.deadline_hits`,
/// `governor.budget_hits`, `governor.cancel_requests`), each at most once
/// per trip event.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_RESOURCEGOVERNOR_H
#define SUS_SUPPORT_RESOURCEGOVERNOR_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace sus {

/// What ran out.
enum class ResourceKind : uint8_t {
  Deadline,      ///< The governor's wall-clock deadline passed.
  Cancelled,     ///< Somebody called requestCancel().
  ProductStates, ///< Product-state budget (compliance product, validity
                 ///< model checking).
};

/// Stable lower-case name for metrics/trace tags and diagnostics.
const char *resourceKindName(ResourceKind K);

/// The typed "budget exceeded" value the governed layers report instead
/// of throwing. For the state budget, Spent is the state count that would
/// have been materialized and Limit the configured cap; for the deadline,
/// both are in milliseconds (elapsed vs. budget); for cancellation both
/// are 0.
struct ResourceExhausted {
  ResourceKind Which;
  uint64_t Spent = 0;
  uint64_t Limit = 0;

  /// Human-readable one-liner, e.g. "product-state budget exhausted
  /// (5 > 4)" or "deadline exceeded (12ms > 10ms)".
  std::string str() const;

  bool deadlineLike() const {
    return Which == ResourceKind::Deadline || Which == ResourceKind::Cancelled;
  }
};

/// Result-or-exhaustion sum type returned by RepairSession::applyDelta
/// (core/Repair.h). No exceptions cross that boundary: callers branch on
/// ok().
///
/// [[nodiscard]]: dropping an Outcome silently discards a possible
/// Inconclusive verdict — the caller would proceed as if the governed
/// computation had succeeded.
template <typename T> class [[nodiscard]] Outcome {
public:
  Outcome(T Value) : Storage(std::in_place_index<0>, std::move(Value)) {}
  Outcome(ResourceExhausted E) : Storage(std::in_place_index<1>, E) {}

  bool ok() const { return Storage.index() == 0; }

  const T &value() const & {
    assert(ok() && "Outcome holds ResourceExhausted");
    return std::get<0>(Storage);
  }
  T &value() & {
    assert(ok() && "Outcome holds ResourceExhausted");
    return std::get<0>(Storage);
  }

  const ResourceExhausted &exhausted() const {
    assert(!ok() && "Outcome holds a value");
    return std::get<1>(Storage);
  }

private:
  std::variant<T, ResourceExhausted> Storage;
};

/// A shared budget-and-deadline token. One governor typically spans one
/// susc invocation and is observed concurrently by every worker; all
/// members are lock-free and poll() is safe from any thread.
class ResourceGovernor {
public:
  static constexpr uint64_t Unlimited = ~uint64_t(0);

  ResourceGovernor() = default;
  ResourceGovernor(const ResourceGovernor &) = delete;
  ResourceGovernor &operator=(const ResourceGovernor &) = delete;

  /// Arms the monotonic deadline \p Millis from now. 0 is legal and trips
  /// the very first poll (deterministic "already expired" semantics).
  void setDeadlineAfterMillis(uint64_t Millis);
  bool hasDeadline() const { return DeadlineNanos != 0; }

  /// Sets the state budget for \p K (ProductStates only).
  void setLimit(ResourceKind K, uint64_t Limit);
  uint64_t limit(ResourceKind K) const;

  /// Requests cooperative cancellation: every subsequent poll() trips.
  void requestCancel();
  bool cancelRequested() const {
    return CancelFlag.load(std::memory_order_relaxed);
  }

  /// Loop-granularity check of the cancellation flag and the deadline.
  /// The clock is only read every few ticks (and always on the first
  /// tick), so polling per popped work item is cheap. Sticky: once a
  /// deadline/cancel trip is observed, every later poll returns it.
  std::optional<ResourceExhausted> poll() const;

  /// Charges \p Spent accumulated units against the \p K budget; returns
  /// the trip if Spent exceeds the configured limit. Not sticky — budget
  /// exhaustion is scoped to the kernel call that overran.
  std::optional<ResourceExhausted> charge(ResourceKind K,
                                          uint64_t Spent) const;

private:
  std::optional<ResourceExhausted> deadlineTrip() const;

  /// Configuration fields: written while arming, before the governor is
  /// handed to the kernels that poll it (a hand-off to another thread
  /// must synchronize, e.g. through a mutex), read-only afterwards — hence
  /// plain, not atomic.
  uint64_t StartNanos = 0;    ///< When the deadline was armed.
  uint64_t DeadlineNanos = 0; ///< Absolute steady-clock deadline; 0 = none.
  uint64_t BudgetMillis = 0;
  uint64_t ProductLimit = Unlimited;

  // All three atomics are relaxed everywhere (ResourceGovernor.cpp):
  // they are advisory, sticky, one-way flags and a poll-amortization
  // counter. Cancellation/deadline semantics are "every poll *after* the
  // trip eventually observes it" — cooperative, not synchronizing — and
  // no data is published through any of them, so no acquire/release
  // pairing is owed; atomicity alone rules out torn reads.
  std::atomic<bool> CancelFlag{false};
  mutable std::atomic<bool> DeadlineHit{false};
  mutable std::atomic<uint64_t> Ticks{0};
};

} // namespace sus

#endif // SUS_SUPPORT_RESOURCEGOVERNOR_H
