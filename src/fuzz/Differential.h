//===- fuzz/Differential.h - Differential fuzzing oracles -------*- C++ -*-===//
///
/// \file
/// The differential harness: every generated program is pushed through a
/// hierarchy of independent implementations that must agree —
///
///   parse        the program must parse (the generator promises this),
///                and at every node the well-formedness facts must agree
///                with the checker walk;
///   compliance   product-automaton checker (Thm. 1) vs. the literal
///                Def. 4 ready-set procedure, per request/service pair;
///   prescreen    a compliance pre-screen Reject must imply the ready-set
///                procedure rejects the same pair;
///   bpa          hist::derive trace prefixes vs. the BPA translation's
///                (plus canPerform spot checks on sampled BPA traces);
///   monitor      fused-DFA session monitor vs. the ValidityChecker
///                oracle, label by label over a random trace;
///   interpreter  the Interpreter's monitor vs. the ValidityChecker
///                oracle, step by step over a random run per client
///                under a random plan (blocking and plan gaps included);
///   security     the §5 theorem: a plan the static checker finds valid
///                runs unmonitored without a violation or a plan gap;
///   snapshot     a cache snapshot cut after a cold verification must
///                reload into a fresh context and reproduce the exact
///                verdict stream — and seeded bit-flips / truncations
///                of the blob must all be rejected cleanly;
///   chaos        governed re-verification must be Inconclusive-or-
///                correct and must never pollute shared caches.
///
/// Any disagreement is reported as a Divergence and the failing program
/// is minimized declaration-by-declaration into a replayable reproducer.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_FUZZ_DIFFERENTIAL_H
#define SUS_FUZZ_DIFFERENTIAL_H

#include "fuzz/Generator.h"
#include "net/Interpreter.h"

#include <functional>
#include <string>
#include <vector>

namespace sus {
namespace fuzz {

/// Knobs for one differential run.
struct FuzzOptions {
  GeneratorOptions Gen;
  unsigned MonitorTraceLen = 48; ///< Labels fed to the monitor pair,
                                 ///< and steps per interpreter run.
  bool Chaos = true;             ///< Run the governor chaos soak too.
};

/// One oracle disagreement (or unexpected parser outcome).
struct Divergence {
  std::string Check; ///< "parse", "compliance", "prescreen", "bpa",
                     ///< "monitor", "interpreter", "security",
                     ///< "snapshot", "chaos".
  std::string Detail;
};

/// Everything learned about one seed.
struct SeedReport {
  uint64_t Seed = 0;
  GeneratedProgram Program;
  std::vector<Divergence> Divergences;
  /// Declaration-minimized reproducer; only set when divergences exist.
  std::string MinimizedSource;

  bool clean() const { return Divergences.empty(); }
};

/// Runs every oracle over \p Source (any .sus text, not necessarily
/// generated). \p Seed keys the random traces and chaos schedules.
/// Returns false when the program did not even parse.
bool checkSource(const std::string &Source, uint64_t Seed,
                 const FuzzOptions &Opts, std::vector<Divergence> &Out);

/// Drives \p Interp with a random scheduler seeded by \p Seed for up to
/// \p MaxSteps applied steps and checks its monitor against one
/// ValidityChecker per component fed the same history. At every state
/// each offered step's Blocked must equal !wouldRemainValidAll(its
/// history labels) while the monitor is on (and be false while it is
/// off); at the end isViolated must equal the checker's verdict. Returns
/// the first disagreement, or an empty string.
std::string checkInterpreterMonitor(net::Interpreter &Interp,
                                    const policy::PolicyRegistry &Registry,
                                    const StringInterner &Interner,
                                    uint64_t Seed, unsigned MaxSteps);

/// Generates the program for \p Seed, runs the oracles, and minimizes on
/// failure.
SeedReport runSeed(uint64_t Seed, const FuzzOptions &Opts = {});

/// Greedy ddmin-style declaration minimization: repeatedly drops any
/// declaration whose removal keeps \p StillFails true. Deterministic and
/// O(n²) predicate calls in the worst case, which is fine for the handful
/// of declarations a generated program has.
std::vector<std::string> minimizeDecls(
    std::vector<std::string> Decls,
    const std::function<bool(const std::vector<std::string> &)> &StillFails);

/// Deterministic adversarial parser battery: oversized number literals,
/// nesting ladders at and beyond the ParserBase depth limit, very long
/// prefix/sequence spines, and seeded token soup, pushed through the
/// lexer and all three parsers. Inputs that must parse have to parse;
/// inputs that must be rejected have to fail with the expected
/// diagnostic — and nothing may crash (stack overflow and signed-overflow
/// UB show up as process death under the sanitizer legs). Returns the
/// violations found.
std::vector<Divergence> parserTorture();

} // namespace fuzz
} // namespace sus

#endif // SUS_FUZZ_DIFFERENTIAL_H
