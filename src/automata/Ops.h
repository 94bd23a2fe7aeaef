//===- automata/Ops.h - Automata algorithms ---------------------*- C++ -*-===//
///
/// \file
/// The classic constructions the program and its test oracles run:
/// subset-construction determinization (hashed state sets over bitset
/// closures), completion, emptiness, Hopcroft minimization, and
/// language containment and equivalence decided *on the fly* — neither the
/// complement nor the product they probe is ever materialized.
///
/// The compliance product (§4, Thm. 1) and the validity exploration
/// (§3.1) have their own governed explorations (contract/ComplianceProduct,
/// validity/StaticValidity); these kernels are ungoverned.
///
/// Alphabet parameters are sorted, duplicate-free symbol vectors (the form
/// `Nfa::alphabet()`/`Dfa::alphabet()` return).
///
/// Every entry point is [[nodiscard]]: the kernels are pure queries and
/// constructions, so a dropped result is always a bug.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_AUTOMATA_OPS_H
#define SUS_AUTOMATA_OPS_H

#include "automata/Nfa.h"

#include <vector>

namespace sus {
namespace automata {

/// Subset construction. The result is deterministic but not necessarily
/// complete (undefined transitions reject). State sets are tracked as
/// bitsets and hashed (support/HashUtil.h); successor sets are expanded
/// per dense symbol index, in ascending symbol order, so the result's
/// state numbering is the deterministic BFS discovery order.
[[nodiscard]] Dfa determinize(const Nfa &N);

/// Adds a non-accepting sink so that every state has a transition on every
/// symbol in \p Alphabet (sorted, unique). Edges on symbols outside
/// \p Alphabet are copied but not completed, mirroring the inputs.
[[nodiscard]] Dfa complete(const Dfa &D, const std::vector<SymbolCode> &Alphabet);

/// Returns true if the language of \p D is empty. (Early-exit BFS; no
/// witness bookkeeping.)
[[nodiscard]] bool isEmpty(const Dfa &D);

/// Returns true if L(A) ⊆ L(B), exploring the implicit product of A with
/// the (virtual) completed complement of B — neither the complement nor
/// the product is built.
[[nodiscard]] bool containedIn(const Dfa &A, const Dfa &B);

/// Hopcroft minimization — genuine partition refinement with a splitter
/// worklist over per-symbol inverse transitions, O(|Σ|·n·log n). The input
/// is completed over its own alphabet first; the result is the canonical
/// minimal complete DFA (minus any unreachable states), numbered by
/// first-occurrence scan order for determinism.
[[nodiscard]] Dfa minimize(const Dfa &D);

/// Language equivalence via two on-the-fly containment checks; no
/// complement or product automata are materialized.
[[nodiscard]] bool equivalent(const Dfa &A, const Dfa &B);

} // namespace automata
} // namespace sus

#endif // SUS_AUTOMATA_OPS_H
