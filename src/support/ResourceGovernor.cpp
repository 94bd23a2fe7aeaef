//===- support/ResourceGovernor.cpp - Deadlines, budgets, cancel ----------===//

#include "support/ResourceGovernor.h"

#include "support/Metrics.h"

#include <chrono>

using namespace sus;

namespace {

/// Deadline clock reads are amortized: poll() touches the clock once per
/// stride of ticks (and on the first tick, so an already-expired deadline
/// trips deterministically at kernel entry).
constexpr uint64_t PollStride = 16;

metrics::Counter &deadlineHitsCounter() {
  static metrics::Counter &C = metrics::counter("governor.deadline_hits");
  return C;
}

metrics::Counter &budgetHitsCounter() {
  static metrics::Counter &C = metrics::counter("governor.budget_hits");
  return C;
}

metrics::Counter &cancelRequestsCounter() {
  static metrics::Counter &C = metrics::counter("governor.cancel_requests");
  return C;
}

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

const char *sus::resourceKindName(ResourceKind K) {
  switch (K) {
  case ResourceKind::Deadline:
    return "deadline";
  case ResourceKind::Cancelled:
    return "cancelled";
  case ResourceKind::ProductStates:
    return "product_states";
  }
  return "unknown";
}

std::string ResourceExhausted::str() const {
  switch (Which) {
  case ResourceKind::Deadline:
    return "deadline exceeded (" + std::to_string(Spent) + "ms > " +
           std::to_string(Limit) + "ms)";
  case ResourceKind::Cancelled:
    return "cancelled";
  case ResourceKind::ProductStates:
    return "product-state budget exhausted (" + std::to_string(Spent) +
           " > " + std::to_string(Limit) + ")";
  }
  return "resource exhausted";
}

void ResourceGovernor::setDeadlineAfterMillis(uint64_t Millis) {
  StartNanos = nowNanos();
  BudgetMillis = Millis;
  // An absolute deadline of 0 means "none", so clamp an armed deadline to
  // at least 1ns past the epoch (in practice now() is always far larger).
  uint64_t Abs = StartNanos + Millis * 1'000'000u;
  DeadlineNanos = Abs == 0 ? 1 : Abs;
}

void ResourceGovernor::requestCancel() {
  // Relaxed exchange: the flag only ever goes false→true, the RMW makes
  // the first-setter-counts-once bookkeeping exact, and cancellation is
  // advisory — a worker may legitimately run a few more poll strides
  // before noticing. Nothing is published through the flag.
  if (!CancelFlag.exchange(true, std::memory_order_relaxed))
    cancelRequestsCounter().add();
}

std::optional<ResourceExhausted>
ResourceGovernor::deadlineTrip() const {
  uint64_t ElapsedMs = (nowNanos() - StartNanos) / 1'000'000u;
  if (ElapsedMs <= BudgetMillis)
    ElapsedMs = BudgetMillis; // Report at least the budget itself.
  return ResourceExhausted{ResourceKind::Deadline, ElapsedMs, BudgetMillis};
}

std::optional<ResourceExhausted> ResourceGovernor::poll() const {
  // All loads/RMWs relaxed: CancelFlag and DeadlineHit are sticky
  // one-way flags whose only invariant is "eventually observed, then
  // observed forever" (stickiness comes from the flag itself, not from
  // ordering); Ticks merely amortizes clock reads, and a lost stride in
  // a racy modulo costs one extra/skipped clock read, nothing more. The
  // clock, not inter-thread ordering, decides the deadline.
  if (CancelFlag.load(std::memory_order_relaxed))
    return ResourceExhausted{ResourceKind::Cancelled, 0, 0};
  if (DeadlineNanos == 0)
    return std::nullopt;
  if (DeadlineHit.load(std::memory_order_relaxed))
    return deadlineTrip();
  if (Ticks.fetch_add(1, std::memory_order_relaxed) % PollStride != 0)
    return std::nullopt;
  if (nowNanos() < DeadlineNanos)
    return std::nullopt;
  if (!DeadlineHit.exchange(true, std::memory_order_relaxed))
    deadlineHitsCounter().add();
  return deadlineTrip();
}

std::optional<ResourceExhausted>
ResourceGovernor::chargeProductStates(uint64_t Spent) const {
  if (Spent <= ProductLimit)
    return std::nullopt;
  budgetHitsCounter().add();
  return ResourceExhausted{ResourceKind::ProductStates, Spent, ProductLimit};
}
