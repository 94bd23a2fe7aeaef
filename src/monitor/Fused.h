//===- monitor/Fused.h - Fused multi-policy monitor DFAs --------*- C++ -*-===//
///
/// \file
/// Fuses a *set* of instantiated usage policies into one lazily grown
/// product DFA so that a session's entire monitor state is a single
/// pointer. Each policy is subset-compiled over a shared concrete event
/// universe (policy/Compile) and Hopcroft-minimized; the product of the
/// per-policy DFAs is never built up front. A product state — its
/// successor row and its offending mask (bit i set ⇔ policy i is
/// offending there, ceil(K/64) words for K policies) — is materialized
/// on first visit and memoized inside the FusedPolicyAutomaton, so every
/// session sharing the automaton reuses it. Per-event admission on an
/// already visited edge costs one acquire load of the row entry plus one
/// mask AND against the active-policy mask.
///
/// Soundness contract: offending states of usage automata are absorbing,
/// so per-policy acceptance is prefix-sticky and survives language-
/// preserving minimization. The fused monitor is exact — it blocks a
/// label iff the ValidityChecker oracle would (MonitorDiffTest proves
/// this bit-for-bit) — *provided the universe is closed*: every event the
/// session can fire must be in the fusion universe, because an unseen
/// event could match wildcard or guard edges. net::Interpreter closes it
/// by construction: it fuses over the event universe of its own clients
/// and every published service.
///
/// Fusion always succeeds. Memory is capped, verdicts are not: once the
/// memo holds MaxStates states, a session that needs a new one steps the
/// per-policy DFAs directly (SessionMonitor's past-cap path).
///
//===----------------------------------------------------------------------===//

#ifndef SUS_MONITOR_FUSED_H
#define SUS_MONITOR_FUSED_H

#include "automata/Nfa.h"
#include "hist/Action.h"
#include "hist/Expr.h"
#include "policy/UsageAutomaton.h"
#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace sus {
namespace monitor {

/// Default memory cap of a product memo, in materialized states (at
/// least the start state is always kept). Past it sessions step the
/// per-policy DFAs directly; verdicts are unaffected.
constexpr uint64_t DefaultMaxFusedStates = 1u << 20;

/// One materialized product state. Everything but the successor row is
/// written before the state is published and immutable afterwards; each
/// row entry goes from null to its final successor exactly once.
class FusedState {
public:
  /// Offending-mask bits 0..63 (bit i ⇔ policy i offends here).
  uint64_t mask0() const { return Mask0; }

  /// Offending-mask words 1..ceil(K/64)-1; null when K <= 64.
  const uint64_t *maskHi() const { return MaskHi; }

  /// True when policy \p Bit offends here.
  bool offends(unsigned Bit) const {
    uint64_t Word = Bit < 64 ? Mask0 : MaskHi[Bit / 64 - 1];
    return (Word >> (Bit % 64)) & 1;
  }

  /// The per-policy DFA states this product state stands for.
  const automata::StateId *tuple() const { return Tuple; }

  /// The successor on symbol index \p Idx once materialized, else null.
  /// The acquire pairs with the release store that publishes the row
  /// entry, so the successor's mask and tuple are visible without a lock.
  const FusedState *next(uint32_t Idx) const {
    return row()[Idx].load(std::memory_order_acquire);
  }

private:
  friend class ProductMemo;
  using Edge = std::atomic<const FusedState *>;

  /// The row of |Universe| edges is laid out right after the header.
  Edge *row() const {
    return reinterpret_cast<Edge *>(const_cast<FusedState *>(this) + 1);
  }

  uint64_t Mask0 = 0;
  const uint64_t *MaskHi = nullptr;
  const automata::StateId *Tuple = nullptr;
};

/// The memo of materialized product states (defined in Fused.cpp).
class ProductMemo;

/// A set of instantiated policies fused into one lazily built DFA.
///
/// Symbol code i is Universe[i], and because codes are dense
/// 0..|Universe|-1 the compact alphabet index equals the code, so
/// `eventIndexOf` indexes the per-policy DFAs and the product rows.
struct FusedPolicyAutomaton {
  /// Sentinel of eventIndexOf for events outside the universe.
  static constexpr uint32_t NoEvent = ~0u;

  /// Per fused policy, its minimized DFA over the universe (total; a
  /// state accepts iff the policy is offending there). Parts[i] decides
  /// Policies[i].
  std::vector<automata::Dfa> Parts;

  /// The fused non-trivial, instantiable policies (sorted, distinct);
  /// index == mask bit.
  std::vector<hist::PolicyRef> Policies;

  /// Referenced policies the registry could not instantiate (sorted).
  /// Opening their frame is always a violation — exactly the legacy
  /// checker's verdict — so they need no automaton.
  std::vector<hist::PolicyRef> UnknownPolicies;

  /// The closed event universe (sorted, distinct); index == symbol code
  /// == compact alphabet index.
  std::vector<hist::Event> Universe;

  /// Cache key: policySetFingerprint(Policies ∪ UnknownPolicies, Universe).
  uint64_t Fingerprint = 0;

  FusedPolicyAutomaton();
  FusedPolicyAutomaton(FusedPolicyAutomaton &&) noexcept;
  FusedPolicyAutomaton &operator=(FusedPolicyAutomaton &&) noexcept;
  ~FusedPolicyAutomaton();

  /// Symbol index of \p Ev, or NoEvent when outside the universe.
  uint32_t eventIndexOf(const hist::Event &Ev) const {
    auto It = EventIndex.find(Ev);
    return It == EventIndex.end() ? NoEvent : It->second;
  }

  /// Mask bit of \p Ref, or -1 when not fused.
  int policyBit(const hist::PolicyRef &Ref) const;

  /// Offending-mask words per state: ceil(|Policies| / 64), at least 1.
  size_t maskWords() const {
    return Policies.size() <= 64 ? 1 : (Policies.size() + 63) / 64;
  }

  /// Product states materialized so far (grows as sessions explore).
  size_t numStates() const;

  /// The start state; always materialized.
  const FusedState *start() const;

  /// The row-less state a session moves to once the memo is full: every
  /// next() on it misses. Never a successor of a materialized state.
  const FusedState *pastCap() const;

  /// The successor of \p From on symbol index \p Idx, materializing it on
  /// a miss; null when that would exceed the memo cap.
  const FusedState *successor(const FusedState *From, uint32_t Idx) const;

  /// Builds EventIndex from Universe and starts an empty memo over Parts
  /// capped at \p MaxStates. fusePolicies calls it once the fields above
  /// are final.
  void finalize(uint64_t MaxStates);

  /// Built by finalize; exposed for hot paths that pre-translate.
  std::unordered_map<hist::Event, uint32_t> EventIndex;

private:
  std::unique_ptr<ProductMemo> Memo;
};

/// Canonicalizes a fusion request in place: trivial refs dropped, refs and
/// universe sorted and deduplicated. fusePolicies and the cache key both
/// use this form, so permutations of the same session share one fusion.
void canonicalizePolicySet(std::vector<hist::PolicyRef> &Refs,
                           std::vector<hist::Event> &Universe);

/// Order-independent fingerprint of a *canonicalized* policy set plus
/// universe (the FusedCache key). Collisions are possible; FusedCache
/// compares the actual set on every hit.
uint64_t policySetFingerprint(const std::vector<hist::PolicyRef> &Refs,
                              const std::vector<hist::Event> &Universe);

/// Every non-trivial policy reference occurring in \p Exprs (requests,
/// framings and residual frame markers), deduplicated and sorted.
std::vector<hist::PolicyRef>
collectPolicyRefs(const std::vector<const hist::Expr *> &Exprs);

/// Fuses \p Refs over \p Universe (both canonicalized internally): compiles
/// and minimizes every policy and starts an empty product memo capped at
/// \p MaxStates. Always succeeds.
FusedPolicyAutomaton fusePolicies(const policy::PolicyRegistry &Registry,
                                  const StringInterner &Interner,
                                  std::vector<hist::PolicyRef> Refs,
                                  std::vector<hist::Event> Universe,
                                  uint64_t MaxStates = DefaultMaxFusedStates);

/// Thread-safe fingerprint-keyed cache of fused DFAs, shared across
/// sessions with the same active policy set (MonitorEngine sessions, and
/// the engines that share one cache).
class FusedCache {
public:
  /// Canonicalizes, then returns the cached fusion or fuses and records
  /// it; never null. A cached entry is returned only when its policy set
  /// and universe equal the request's; a fingerprint collision fuses
  /// without caching. A hit keeps the cap it was fused with.
  std::shared_ptr<const FusedPolicyAutomaton>
  fuse(const policy::PolicyRegistry &Registry, const StringInterner &Interner,
       std::vector<hist::PolicyRef> Refs, std::vector<hist::Event> Universe,
       uint64_t MaxStates = DefaultMaxFusedStates);

  struct Stats {
    size_t Lookups = 0; ///< fuse() calls.
    size_t Hits = 0;    ///< ... answered from the cache.
    size_t Fusions = 0; ///< Automata actually fused.
  };
  Stats stats() const;

  /// Every cached fusion, in fingerprint order.
  std::vector<std::shared_ptr<const FusedPolicyAutomaton>> snapshot() const;

private:
  /// Leaf lock over the table and stats. fuse() deliberately *releases*
  /// M while compiling the policies, then re-locks to insert — losing a
  /// duplicate-fusion race is cheaper than serializing every fusion.
  mutable Mutex M;
  mutable Stats S SUS_GUARDED_BY(M);
  std::map<uint64_t, std::shared_ptr<const FusedPolicyAutomaton>>
      Entries SUS_GUARDED_BY(M);
};

} // namespace monitor
} // namespace sus

#endif // SUS_MONITOR_FUSED_H
