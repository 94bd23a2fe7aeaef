//===- automata/KernelStats.h - Automata kernel accounting ------*- C++ -*-===//
///
/// \file
/// Wall-clock accounting for time spent inside the automata kernels: the
/// ComplianceProduct construction (the Thm. 1 emptiness kernel the
/// verifier bottoms out in) plus the automata/Ops.h entry points, of which
/// the program runs minimize (fused monitors) and isEmpty (framing lints)
/// and the test oracles the rest.
/// bench_verifier (B7) reads it to report kernel time separately from
/// pipeline time, so kernel and pipeline speedups stay distinguishable
/// across PRs.
///
/// Since the observability PR the storage lives in the process-wide
/// metrics registry (support/Metrics.h) as the always-on time account
/// "automata.kernel_ns" — one home for wall-time accounting, and the
/// account shows up in every --metrics-out report. This header remains
/// the automata-layer facade: re-entrancy aware (nested kernel calls are
/// counted once, at the outermost scope) and thread-safe (workers
/// accumulate into one atomic). The cost is two clock reads per
/// outermost kernel call, which is noise next to any kernel's actual
/// work. When span tracing is on, each outermost kernel call additionally
/// emits an "automata"-category span named after the kernel.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_AUTOMATA_KERNELSTATS_H
#define SUS_AUTOMATA_KERNELSTATS_H

#include <cstdint>

namespace sus {
namespace automata {

/// The registry name of the kernel time account.
inline constexpr const char *KernelTimeAccountName = "automata.kernel_ns";

/// Cumulative nanoseconds spent inside automata-kernel entry points since
/// process start (or the last resetKernelNanos), summed over all threads.
uint64_t kernelNanos();

/// Resets the accumulator to zero.
void resetKernelNanos();

/// RAII guard placed at every kernel entry point. Only the outermost scope
/// on each thread accumulates (and traces), so nested kernels (e.g.
/// minimize calling complete) are not double-counted. \p Name must be a
/// string literal; it becomes the trace span name.
class KernelTimerScope {
public:
  explicit KernelTimerScope(const char *Name = "automata.kernel");
  ~KernelTimerScope();
  KernelTimerScope(const KernelTimerScope &) = delete;
  KernelTimerScope &operator=(const KernelTimerScope &) = delete;

private:
  uint64_t StartNanos; ///< Only meaningful for the outermost scope.
  const char *Name;
};

} // namespace automata
} // namespace sus

#endif // SUS_AUTOMATA_KERNELSTATS_H
