//===- support/Metrics.h - Process-wide metrics registry --------*- C++ -*-===//
///
/// \file
/// A process-wide registry of named counters, gauges and histograms, plus
/// always-on wall-clock time accounts. Handles are obtained once (cache
/// them in a function-local static at the call site) and are stable for
/// the life of the process; the registry is intentionally leaked so
/// handles stay valid during static destruction.
///
/// Overhead contract: while metrics are disabled (the default), every
/// mutation bottoms out in one relaxed atomic load and a branch. Enabled
/// counters and histograms add into lock-free per-thread shards (relaxed
/// fetch_add on a cache-line-padded slot) that are only merged when a
/// report is written. Time accounts are the exception: they are always on
/// (one atomic add per outermost scope — the KernelStats contract) so
/// benchmark trajectories never depend on a flag.
///
/// writeJson() renders everything as one JSON object with a stable
/// "sus-metrics-v1" shape; tests/metrics_schema.json is the normative
/// schema.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_METRICS_H
#define SUS_SUPPORT_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>

namespace sus {
namespace metrics {

namespace detail {
extern std::atomic<bool> Enabled;

/// Shard fan-out for counters and histograms. Threads hash onto shards,
/// so this bounds contention, not thread count.
constexpr unsigned NumShards = 16;

/// The executing thread's shard index.
unsigned shardIndex();

struct alignas(64) Shard {
  std::atomic<uint64_t> Value{0};
};
} // namespace detail

/// True while metric mutation is on: the one-atomic-load gate.
///
/// Relaxed is sufficient: the gate publishes no data (instruments are
/// zero-initialized atomics, every mutation is itself atomic), so a
/// thread acting on a stale reading at worst skips or lands one extra
/// sample — never a race. See metrics::enable() in Metrics.cpp.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

void enable();
void disable();

/// Zeroes every counter, gauge and histogram (time accounts are reset
/// through their own reset(), as KernelStats always has been).
void reset();

/// A monotone counter, sharded per thread.
class Counter {
public:
  void add(uint64_t N = 1) {
    if (!enabled())
      return;
    // Relaxed fetch_add: each shard is an independent monotone
    // accumulator; no reader infers anything from one shard about
    // another, so no inter-shard ordering is needed — atomicity of the
    // RMW alone guarantees no increment is lost.
    Shards[detail::shardIndex()].Value.fetch_add(N,
                                                 std::memory_order_relaxed);
  }

  /// Merged value across shards. Relaxed loads: the merge is an
  /// eventually-consistent snapshot by contract — reports run after
  /// writers quiesce (waitIdle/process exit), where every relaxed add is
  /// already visible via the joins' synchronization.
  uint64_t value() const {
    uint64_t Sum = 0;
    for (const detail::Shard &S : Shards)
      Sum += S.Value.load(std::memory_order_relaxed);
    return Sum;
  }

  void resetValue() {
    for (detail::Shard &S : Shards)
      S.Value.store(0, std::memory_order_relaxed);
  }

private:
  detail::Shard Shards[detail::NumShards];
};

/// A last-write-wins (or running-max) signed gauge.
class Gauge {
public:
  void set(int64_t V) {
    if (enabled())
      Value.store(V, std::memory_order_relaxed);
  }

  /// Raises the gauge to \p V if larger (high-water marks).
  ///
  /// Relaxed CAS loop: the invariant — the gauge ends at the maximum of
  /// all setMax arguments once writers quiesce — only needs the CAS to
  /// be atomic; a stale initial load just retries. No other location is
  /// published through the gauge, so no ordering is owed.
  void setMax(int64_t V) {
    if (!enabled())
      return;
    int64_t Cur = Value.load(std::memory_order_relaxed);
    while (Cur < V &&
           !Value.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  int64_t value() const { return Value.load(std::memory_order_relaxed); }
  void resetValue() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Value{0};
};

/// A log2-bucketed histogram of unsigned samples: bucket B counts samples
/// with bit_width(V) == B (bucket 0 holds zeros). Count and sum are
/// sharded; min/max are single CAS-updated atomics (updates are rare once
/// the envelope settles).
class Histogram {
public:
  static constexpr unsigned NumBuckets = 64;

  void observe(uint64_t V);

  uint64_t count() const { return merged(CountShards); }
  uint64_t sum() const { return merged(SumShards); }
  /// Largest observed sample, 0 if empty.
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  /// Smallest observed sample, 0 if empty.
  uint64_t min() const {
    uint64_t M = Min.load(std::memory_order_relaxed);
    return M == ~uint64_t(0) ? 0 : M;
  }
  uint64_t bucket(unsigned B) const;
  void resetValue();

private:
  uint64_t merged(const detail::Shard *Shards) const {
    uint64_t Sum = 0;
    for (unsigned I = 0; I < detail::NumShards; ++I)
      Sum += Shards[I].Value.load(std::memory_order_relaxed);
    return Sum;
  }

  detail::Shard CountShards[detail::NumShards];
  detail::Shard SumShards[detail::NumShards];
  /// Buckets are plain atomics (not sharded): 64 × NumShards pads poorly,
  /// and bucket increments already spread across 64 lines.
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Min{~uint64_t(0)};
  std::atomic<uint64_t> Max{0};
};

/// An always-on wall-clock accumulator (nanoseconds). Unlike the gated
/// instruments above, adds always land: time accounts back KernelStats,
/// whose readings benches consume unconditionally.
class TimeAccount {
public:
  void add(uint64_t Nanos) {
    // Relaxed: a single monotone accumulator; atomic RMW loses nothing,
    // and readers (bench reports) run after the measured work joins.
    Value.fetch_add(Nanos, std::memory_order_relaxed);
  }
  uint64_t nanos() const { return Value.load(std::memory_order_relaxed); }
  void resetValue() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Adds the wall time of its own lifetime to a TimeAccount: one scope per
/// layer entry (a whole tokenize, a whole file parse), never per item.
class TimeAccountScope {
public:
  explicit TimeAccountScope(TimeAccount &Account)
      : Account(Account), Start(std::chrono::steady_clock::now()) {}
  ~TimeAccountScope() {
    Account.add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count()));
  }
  TimeAccountScope(const TimeAccountScope &) = delete;
  TimeAccountScope &operator=(const TimeAccountScope &) = delete;

private:
  TimeAccount &Account;
  std::chrono::steady_clock::time_point Start;
};

/// Interns \p Name and returns its process-wide instrument. The first
/// call for a name creates it; the registry lock makes this the one
/// non-lock-free path, so cache the reference at the call site.
Counter &counter(std::string_view Name);
Gauge &gauge(std::string_view Name);
Histogram &histogram(std::string_view Name);
TimeAccount &timeAccount(std::string_view Name);

/// Renders every registered instrument as the sus-metrics-v1 JSON object.
void writeJson(std::ostream &OS);

} // namespace metrics
} // namespace sus

#endif // SUS_SUPPORT_METRICS_H
