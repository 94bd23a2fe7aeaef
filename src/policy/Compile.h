//===- policy/Compile.h - Policies as classical DFAs ------------*- C++ -*-===//
///
/// \file
/// Compiles an *instantiated* usage automaton into a classical DFA over a
/// finite universe of concrete events. This is the bridge to the automata
/// substrate: once compiled, policies can be minimized, complemented and
/// compared for exact language equivalence (e.g. a parsed policy against
/// a programmatically built one).
///
/// Usage automata are nondeterministic and implicitly complete (unmatched
/// events self-loop), so compilation is a subset construction relative to
/// the chosen universe; accepting DFA states are the offending ones.
/// Events outside the universe are not represented — callers must supply
/// every event their system can fire (see eventUniverse()).
///
//===----------------------------------------------------------------------===//

#ifndef SUS_POLICY_COMPILE_H
#define SUS_POLICY_COMPILE_H

#include "automata/Nfa.h"
#include "hist/Expr.h"
#include "policy/UsageAutomaton.h"

#include <vector>

namespace sus {
namespace policy {

/// A policy compiled over a fixed event universe.
struct CompiledPolicy {
  automata::Dfa Automaton;           ///< Accepting states = offending.
  std::vector<hist::Event> Universe; ///< Symbol code -> concrete event.

  /// The symbol code of \p Ev, or automata's max if absent.
  automata::SymbolCode codeOf(const hist::Event &Ev) const;
};

/// Subset-compiles \p Instance over \p Universe (deduplicated, order
/// preserved).
CompiledPolicy compilePolicy(const PolicyInstance &Instance,
                             std::vector<hist::Event> Universe);

/// Exact language equivalence of two instances over a shared universe:
/// they flag exactly the same event sequences as violations.
bool equivalentOn(const PolicyInstance &A, const PolicyInstance &B,
                  const std::vector<hist::Event> &Universe);

/// Collects every concrete event occurring in \p E (deduplicated,
/// left-to-right).
std::vector<hist::Event> eventUniverse(const hist::Expr *E);

/// Collects the events of several expressions at once.
std::vector<hist::Event>
eventUniverse(const std::vector<const hist::Expr *> &Exprs);

/// Collects every non-trivial policy reference occurring in \p Exprs
/// (requests, framings and residual frame markers), deduplicated, in
/// first-occurrence order.
std::vector<hist::PolicyRef>
policyRefs(const std::vector<const hist::Expr *> &Exprs);

} // namespace policy
} // namespace sus

#endif // SUS_POLICY_COMPILE_H
