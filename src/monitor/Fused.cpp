//===- monitor/Fused.cpp - Fused multi-policy monitor DFAs ----------------===//

#include "monitor/Fused.h"

#include "automata/Ops.h"
#include "policy/Compile.h"
#include "support/Casting.h"
#include "support/HashUtil.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <string_view>

using namespace sus;
using namespace sus::monitor;
using namespace sus::hist;

int FusedPolicyAutomaton::policyBit(const PolicyRef &Ref) const {
  auto It = std::lower_bound(Policies.begin(), Policies.end(), Ref);
  if (It == Policies.end() || !(*It == Ref))
    return -1;
  return static_cast<int>(It - Policies.begin());
}

void sus::monitor::canonicalizePolicySet(std::vector<PolicyRef> &Refs,
                                         std::vector<Event> &Universe) {
  Refs.erase(std::remove_if(Refs.begin(), Refs.end(),
                            [](const PolicyRef &R) { return R.isTrivial(); }),
             Refs.end());
  std::sort(Refs.begin(), Refs.end());
  Refs.erase(std::unique(Refs.begin(), Refs.end()), Refs.end());
  std::sort(Universe.begin(), Universe.end());
  Universe.erase(std::unique(Universe.begin(), Universe.end()),
                 Universe.end());
}

uint64_t
sus::monitor::policySetFingerprint(const std::vector<PolicyRef> &Refs,
                                   const std::vector<Event> &Universe) {
  size_t Seed = hashAll(Refs.size(), Universe.size());
  for (const PolicyRef &R : Refs)
    hashCombine(Seed, R.hash());
  for (const Event &Ev : Universe)
    hashCombine(Seed, Ev.hash());
  return static_cast<uint64_t>(Seed);
}

std::vector<PolicyRef>
sus::monitor::collectPolicyRefs(const std::vector<const Expr *> &Exprs) {
  std::vector<PolicyRef> Out = policy::policyRefs(Exprs);
  std::sort(Out.begin(), Out.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// The product memo
//===----------------------------------------------------------------------===//

namespace {
metrics::Counter &fusedStatesCounter() {
  static metrics::Counter &C = metrics::counter("monitor.fused_states");
  return C;
}
} // namespace

/// Materialized product states of one FusedPolicyAutomaton. States live
/// in an arena of byte chunks and never move, so a session may hold a
/// FusedState pointer for as long as it holds the automaton. A state is
/// laid out as
///
///   FusedState header | row: |Universe| edges | mask words 1.. | tuple
///
/// Readers follow published row entries without a lock (FusedState::next);
/// a miss takes M, re-checks, interns the successor tuple and publishes
/// the row entry with a release store.
class sus::monitor::ProductMemo {
public:
  ProductMemo(const std::vector<automata::Dfa> &Parts, uint32_t NumSymbols,
              uint64_t Cap)
      : U(NumSymbols), K(static_cast<uint32_t>(Parts.size())),
        HiWords(K <= 64 ? 0 : (K + 63) / 64 - 1),
        NodeBytes(sizeof(FusedState) + sizeof(uint64_t) * (U + HiWords) +
                  sizeof(uint64_t) * ((K + 1) / 2)),
        ChunkBytes(std::max<size_t>(NodeBytes * 64, 16384)),
        MaxStates(std::max<uint64_t>(Cap, 1)) {
    static_assert(sizeof(FusedState) % 8 == 0 &&
                      alignof(FusedState) <= 8 &&
                      sizeof(FusedState::Edge) == 8 &&
                      alignof(FusedState::Edge) <= 8,
                  "node layout assumes 8-byte words");
    MutexLock Lock(M);
    NextTuple.resize(K);
    for (uint32_t I = 0; I < K; ++I)
      NextTuple[I] = Parts[I].start();
    Start = internLocked(Parts, NextTuple.data());
    PastCap = allocateLocked();
  }

  const FusedState *start() const { return Start; }
  const FusedState *pastCap() const { return PastCap; }

  size_t numStates() const {
    // Relaxed: a monotone count read for reporting only; no data is
    // published through it (row entries carry their own release/acquire).
    return Count.load(std::memory_order_relaxed);
  }

  /// The slow half of FusedState::next; \p Created is set when this call
  /// materialized a new state.
  const FusedState *successor(const std::vector<automata::Dfa> &Parts,
                              const FusedState *From, uint32_t Idx,
                              bool &Created) {
    assert(From != PastCap && Idx < U && "no row to grow");
    MutexLock Lock(M);
    if (const FusedState *To = From->next(Idx))
      return To; // Another session published it first.
    for (uint32_t I = 0; I < K; ++I) {
      NextTuple[I] = Parts[I].stepIndex(From->tuple()[I], Idx);
      assert(NextTuple[I] != automata::Dfa::NoState &&
             "minimized policy DFA must be total");
    }
    const FusedState *To;
    auto It = Index.find(key(NextTuple.data()));
    if (It != Index.end()) {
      To = It->second;
    } else {
      if (numStates() >= MaxStates)
        return nullptr; // Past the cap: the caller steps the parts itself.
      To = internLocked(Parts, NextTuple.data());
      Created = true;
    }
    // Release: the successor's header and tuple, written above or by an
    // earlier holder of M, happen-before any reader that acquires it.
    From->row()[Idx].store(To, std::memory_order_release);
    return To;
  }

private:
  std::string_view key(const automata::StateId *Tuple) const {
    return {reinterpret_cast<const char *>(Tuple),
            K * sizeof(automata::StateId)};
  }

  /// A zeroed node with a null row, carved from the arena. Chunks are
  /// byte arrays, so the words and tuple entries inside them need no
  /// further construction.
  FusedState *allocateLocked() SUS_REQUIRES(M) {
    if (Chunks.empty() || ChunkUsed + NodeBytes > ChunkBytes) {
      Chunks.emplace_back(new std::byte[ChunkBytes]);
      ChunkUsed = 0;
    }
    std::byte *Raw = Chunks.back().get() + ChunkUsed;
    ChunkUsed += NodeBytes;
    std::memset(Raw, 0, NodeBytes);
    auto *S = new (Raw) FusedState();
    for (uint32_t I = 0; I < U; ++I)
      new (S->row() + I) FusedState::Edge(nullptr);
    auto *Hi = reinterpret_cast<uint64_t *>(S->row() + U);
    S->MaskHi = HiWords ? Hi : nullptr;
    S->Tuple = reinterpret_cast<const automata::StateId *>(Hi + HiWords);
    return S;
  }

  /// Materializes the state for \p Tuple (not yet interned).
  FusedState *internLocked(const std::vector<automata::Dfa> &Parts,
                           const automata::StateId *Tuple) SUS_REQUIRES(M) {
    FusedState *S = allocateLocked();
    auto *OwnTuple = const_cast<automata::StateId *>(S->Tuple);
    auto *Hi = const_cast<uint64_t *>(S->MaskHi);
    std::copy(Tuple, Tuple + K, OwnTuple);
    for (uint32_t I = 0; I < K; ++I)
      if (Parts[I].isAccepting(Tuple[I])) {
        if (I < 64)
          S->Mask0 |= uint64_t(1) << I;
        else
          Hi[I / 64 - 1] |= uint64_t(1) << (I % 64);
      }
    Index.emplace(key(OwnTuple), S);
    // Relaxed: see numStates(); M orders the writers among themselves.
    Count.fetch_add(1, std::memory_order_relaxed);
    return S;
  }

  const uint32_t U;          ///< Row length: |Universe|.
  const uint32_t K;          ///< Tuple length: |Policies|.
  const uint32_t HiWords;    ///< Mask words past the first.
  const size_t NodeBytes;    ///< Arena bytes per state (a multiple of 8).
  const size_t ChunkBytes;   ///< Arena bytes per chunk.
  const uint64_t MaxStates;  ///< The memo cap (>= 1).
  /// Set under M in the constructor, before the memo is shared.
  const FusedState *Start = nullptr;
  const FusedState *PastCap = nullptr;
  std::atomic<size_t> Count{0};

  /// Leaf lock over the intern table and the arena (DESIGN.md §11).
  Mutex M;
  /// Tuple bytes (viewing each state's own tuple) → state.
  std::unordered_map<std::string_view, const FusedState *>
      Index SUS_GUARDED_BY(M);
  std::vector<std::unique_ptr<std::byte[]>> Chunks SUS_GUARDED_BY(M);
  size_t ChunkUsed SUS_GUARDED_BY(M) = 0;
  std::vector<automata::StateId> NextTuple SUS_GUARDED_BY(M);
};

FusedPolicyAutomaton::FusedPolicyAutomaton() = default;
FusedPolicyAutomaton::FusedPolicyAutomaton(FusedPolicyAutomaton &&) noexcept =
    default;
FusedPolicyAutomaton &
FusedPolicyAutomaton::operator=(FusedPolicyAutomaton &&) noexcept = default;
FusedPolicyAutomaton::~FusedPolicyAutomaton() = default;

size_t FusedPolicyAutomaton::numStates() const { return Memo->numStates(); }

const FusedState *FusedPolicyAutomaton::start() const { return Memo->start(); }

const FusedState *FusedPolicyAutomaton::pastCap() const {
  return Memo->pastCap();
}

const FusedState *FusedPolicyAutomaton::successor(const FusedState *From,
                                                  uint32_t Idx) const {
  bool Created = false;
  const FusedState *To = Memo->successor(Parts, From, Idx, Created);
  if (Created)
    fusedStatesCounter().add();
  return To;
}

void FusedPolicyAutomaton::finalize(uint64_t MaxStates) {
  EventIndex.clear();
  for (uint32_t I = 0; I < Universe.size(); ++I)
    EventIndex.emplace(Universe[I], I);
  Memo = std::make_unique<ProductMemo>(
      Parts, static_cast<uint32_t>(Universe.size()), MaxStates);
  fusedStatesCounter().add(); // The start state.
}

//===----------------------------------------------------------------------===//
// Fusion and the cache
//===----------------------------------------------------------------------===//

FusedPolicyAutomaton
sus::monitor::fusePolicies(const policy::PolicyRegistry &Registry,
                           const StringInterner &Interner,
                           std::vector<PolicyRef> Refs,
                           std::vector<Event> Universe, uint64_t MaxStates) {
  trace::Span Span("monitor.fuse", "monitor");
  canonicalizePolicySet(Refs, Universe);

  FusedPolicyAutomaton F;
  F.Universe = std::move(Universe);
  F.Fingerprint = policySetFingerprint(Refs, F.Universe);

  // Resolve each reference; uninstantiable ones need no automaton (their
  // frame-open is a violation by construction, as in ValidityChecker).
  // compilePolicy is total over the dense codes 0..|Universe|-1 and
  // minimize preserves totality (it completes over the effective alphabet
  // first), so the product never sees a missing transition.
  uint64_t PartStates = 0;
  for (const PolicyRef &Ref : Refs) {
    std::optional<policy::PolicyInstance> Inst =
        Registry.instantiate(Ref, Interner, nullptr);
    if (!Inst) {
      F.UnknownPolicies.push_back(Ref);
      continue;
    }
    automata::Dfa Part =
        automata::minimize(policy::compilePolicy(*Inst, F.Universe).Automaton);
    SUS_AUDIT_AUTOMATON(Part);
    PartStates += Part.numStates();
    F.Policies.push_back(Ref);
    F.Parts.push_back(std::move(Part));
  }
  F.finalize(MaxStates);

  if (metrics::enabled())
    metrics::counter("monitor.fusions").add();
  Span.count("policies", static_cast<int64_t>(F.Policies.size()));
  Span.count("part_states", static_cast<int64_t>(PartStates));
  return F;
}

namespace {

/// True when \p F was fused from the canonical request (\p Refs,
/// \p Universe): the fingerprint alone can collide.
bool fusedFrom(const FusedPolicyAutomaton &F, const std::vector<PolicyRef> &Refs,
               const std::vector<Event> &Universe) {
  if (F.Universe != Universe ||
      F.Policies.size() + F.UnknownPolicies.size() != Refs.size())
    return false;
  // Refs is sorted and both lists are sorted subsequences of it.
  size_t P = 0, Q = 0;
  for (const PolicyRef &R : Refs) {
    if (P < F.Policies.size() && F.Policies[P] == R)
      ++P;
    else if (Q < F.UnknownPolicies.size() && F.UnknownPolicies[Q] == R)
      ++Q;
    else
      return false;
  }
  return true;
}

} // namespace

std::shared_ptr<const FusedPolicyAutomaton>
FusedCache::fuse(const policy::PolicyRegistry &Registry,
                 const StringInterner &Interner, std::vector<PolicyRef> Refs,
                 std::vector<Event> Universe, uint64_t MaxStates) {
  canonicalizePolicySet(Refs, Universe);
  uint64_t Fp = policySetFingerprint(Refs, Universe);
  {
    MutexLock Lock(M);
    ++S.Lookups;
    auto It = Entries.find(Fp);
    if (It != Entries.end() && fusedFrom(*It->second, Refs, Universe)) {
      ++S.Hits;
      if (metrics::enabled())
        metrics::counter("monitor.fusion_cache_hits").add();
      return It->second;
    }
  }
  // Fuse outside the lock: a racing duplicate fusion is cheaper than
  // serializing every session open behind one compilation.
  auto Shared = std::make_shared<const FusedPolicyAutomaton>(
      fusePolicies(Registry, Interner, Refs, Universe, MaxStates));
  MutexLock Lock(M);
  ++S.Fusions;
  auto [It, Inserted] = Entries.emplace(Fp, Shared);
  // A colliding entry keeps its slot; this fusion is served uncached.
  if (Inserted || !fusedFrom(*It->second, Refs, Universe))
    return Shared;
  return It->second;
}

FusedCache::Stats FusedCache::stats() const {
  MutexLock Lock(M);
  return S;
}

std::vector<std::shared_ptr<const FusedPolicyAutomaton>>
FusedCache::snapshot() const {
  MutexLock Lock(M);
  std::vector<std::shared_ptr<const FusedPolicyAutomaton>> Out;
  Out.reserve(Entries.size());
  for (const auto &[Fp, Fused] : Entries)
    Out.push_back(Fused);
  return Out;
}
