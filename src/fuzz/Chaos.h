//===- fuzz/Chaos.h - Governor chaos soak -----------------------*- C++ -*-===//
///
/// \file
/// Injects random resource-governor failures — tiny state budgets,
/// already-expired deadlines, and cancellation requests fired from a
/// second thread mid-verification — into repeated verification runs that
/// share a VerifierCache, then checks the two invariants the governor
/// design promises:
///
///   1. Inconclusive-or-correct: a governed verdict is either
///      inconclusive() or identical to the ungoverned verdict for the
///      same plan. A tripped run may know less, never something wrong.
///   2. No cache pollution: after any number of tripped runs, a clean
///      verifier sharing the same cache reproduces the ungoverned report
///      element-wise.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_FUZZ_CHAOS_H
#define SUS_FUZZ_CHAOS_H

#include "fuzz/Differential.h"
#include "syntax/FileParser.h"

#include <cstdint>
#include <vector>

namespace sus {
namespace fuzz {

/// Soaks every client of \p File as described above. \p Seed keys the
/// chaos schedule (which budgets, which deadlines, when to cancel);
/// violations are appended to \p Out as "chaos" divergences.
void chaosSoak(hist::HistContext &Ctx, const syntax::SusFile &File,
               uint64_t Seed, unsigned Rounds, std::vector<Divergence> &Out);

} // namespace fuzz
} // namespace sus

#endif // SUS_FUZZ_CHAOS_H
