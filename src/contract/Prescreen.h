//===- contract/Prescreen.h - Cheap compliance pre-screens ------*- C++ -*-===//
///
/// \file
/// Necessary-condition pre-screens for Def. 4 compliance, run before the
/// full product automaton is paid for. Each check may only reject a pair
/// that the full check would also reject (soundness argument in DESIGN.md
/// §10):
///
///  - *alphabet screen*: a synchronized step needs an action of the client
///    whose dual the service can ever perform. If the dualized client
///    alphabet and the service alphabet are disjoint, the product has no
///    synchronized transition at all, so compliance reduces to the first
///    clause of Def. 4 at the initial state — which fails as soon as the
///    client has any non-empty ready set.
///
///  - *first-step screen*: Def. 4 clause (1) applied literally to the
///    initial ready sets: whenever H1 ⇓ C and H2 ⇓ S, either C = ∅ or
///    C ∩ S̄ ≠ ∅. A pair failing this is stuck before the first
///    synchronization; the product checker would find the same stuck
///    state, only after building the product.
///
/// A ContractSummary caches everything both screens need (initial ready
/// sets, syntactic alphabet, nullability) so repeated screening of the
/// same contract is set intersections only — this is what ServiceIndex
/// memoizes per published service and per request body, the one store
/// both the scan and the indexed search screen from.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_CONTRACT_PRESCREEN_H
#define SUS_CONTRACT_PRESCREEN_H

#include "contract/ReadySets.h"
#include "hist/Expr.h"
#include "hist/HistContext.h"

#include <set>
#include <vector>

namespace sus {
namespace contract {

/// The pre-screen view of one contract (a projected behaviour).
struct ContractSummary {
  /// False when the projection left the contract fragment: no screen may
  /// reject anything then, the summary is a conservative "anything goes".
  bool Screenable = false;

  /// All S with H ⇓ S at the initial state (Def. 3), deduplicated.
  std::vector<ReadySet> InitialSets;

  /// Every communication action occurring syntactically anywhere in the
  /// contract — a superset of the actions reachable in its LTS, which is
  /// exactly the direction a *necessary* condition needs.
  std::set<hist::CommAction> Alphabet;

  /// True when some initial ready set is non-empty: the client cannot just
  /// terminate, it needs a synchronization partner.
  bool NeedsSync = false;

  /// The smallest non-empty initial ready set (empty when !NeedsSync).
  /// Every compliant partner must offer a dual of one of these actions in
  /// each of its ready sets, so this is the tightest single-set key for
  /// indexed candidate lookup.
  ReadySet IndexKey;
};

/// Summarizes an already-computed projection \p Contract (the result of
/// project(); callers that memoize projections pass theirs here).
ContractSummary summarizeProjection(const hist::Expr *Contract);

/// Summarizes the *projection* of \p E (projection computed here via
/// project(); pass a request body or a published service verbatim).
ContractSummary summarizeContract(hist::HistContext &Ctx,
                                  const hist::Expr *E);

/// Why a pre-screen rejected a candidate pair (or didn't).
enum class PrescreenVerdict : uint8_t {
  Pass,          ///< No necessary condition failed; pay for the product.
  AlphabetReject,///< Dualized client alphabet ∩ service alphabet = ∅.
  FirstStepReject///< Initial ready sets violate Def. 4 clause (1).
};

/// Runs both screens, cheapest first. Only returns a Reject when the full
/// Def. 4 check is guaranteed to reject the same pair.
PrescreenVerdict prescreenCompliance(const ContractSummary &Client,
                                     const ContractSummary &Service);

} // namespace contract
} // namespace sus

#endif // SUS_CONTRACT_PRESCREEN_H
