//===- fuzz/Generator.h - Seeded random .sus program generator --*- C++ -*-===//
///
/// \file
/// Generates random but always-parseable .sus programs: usage policies,
/// services and clients (history expressions that are closed, tail-
/// recursive and comm-guarded by construction), and plan declarations.
/// Knobs control nesting depth, alphabet size and choice width so sweeps
/// can dial difficulty. The same seed always yields the same program.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_FUZZ_GENERATOR_H
#define SUS_FUZZ_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

namespace sus {
namespace fuzz {

/// Difficulty knobs for the program generator. All counts are clamped to
/// sane ranges so a hostile CLI invocation cannot make generation blow up.
struct GeneratorOptions {
  unsigned Depth = 4;        ///< Max behavior nesting depth (1..12).
  unsigned AlphabetSize = 3; ///< Distinct channels and event names (1..16).
  unsigned NumPolicies = 2;  ///< Usage policies to declare (1..8).
  unsigned NumServices = 3;  ///< Service declarations (1..12).
  unsigned NumClients = 2;   ///< Client declarations (1..8).
  unsigned ChoiceWidth = 2;  ///< Max branches per choice (1..4).
};

/// A generated program, kept as one string per top-level declaration so a
/// failure can be minimized by dropping whole declarations.
struct GeneratedProgram {
  std::vector<std::string> Decls;

  /// The full .sus source (declarations joined by blank lines).
  std::string source() const;
};

/// Joins an arbitrary declaration subset back into a source buffer (the
/// minimizer re-parses candidate subsets through this).
std::string joinDecls(const std::vector<std::string> &Decls);

/// Generates the program for \p Seed. Deterministic: equal seed and
/// options yield byte-identical output. The result always parses with
/// parseSusFile (behaviors are closed and well-formed by construction and
/// the printer round-trips).
GeneratedProgram generateProgram(uint64_t Seed,
                                 const GeneratorOptions &Opts = {});

} // namespace fuzz
} // namespace sus

#endif // SUS_FUZZ_GENERATOR_H
