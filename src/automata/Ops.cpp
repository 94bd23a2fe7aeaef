//===- automata/Ops.cpp - Automata algorithms ----------------------------===//

#include "automata/Ops.h"

#include "automata/KernelStats.h"
#include "support/HashUtil.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace sus;
using namespace sus::automata;

namespace {

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

/// Hash for packed (StateId, StateId) product keys.
struct PairKeyHash {
  size_t operator()(uint64_t Key) const noexcept { return hashAll(Key); }
};

inline bool testBit(const uint64_t *Words, StateId S) {
  return (Words[S >> 6] >> (S & 63)) & 1;
}

inline void setBit(uint64_t *Words, StateId S) {
  Words[S >> 6] |= uint64_t(1) << (S & 63);
}

/// Calls \p F with every set bit, ascending.
template <typename Fn>
void forEachBit(const uint64_t *Words, size_t NumWords, Fn F) {
  for (size_t W = 0; W < NumWords; ++W) {
    uint64_t Bits = Words[W];
    while (Bits) {
      unsigned B = static_cast<unsigned>(__builtin_ctzll(Bits));
      Bits &= Bits - 1;
      F(static_cast<StateId>(W * 64 + B));
    }
  }
}

/// Packs a product pair into one hash-map key. The second component may be
/// Dfa::NoState (the implicit dead state of a virtual completion).
inline uint64_t packPair(StateId SA, StateId SB) {
  return (uint64_t(SA) << 32) | SB;
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinization
//===----------------------------------------------------------------------===//

Dfa sus::automata::determinize(const Nfa &N) {
  SUS_AUDIT_AUTOMATON(N);
  KernelTimerScope Timer("automata.determinize");
  Dfa Result;
  const std::vector<SymbolCode> &Syms = N.alphabet();
  const uint32_t K = static_cast<uint32_t>(Syms.size());
  Result.reserveAlphabet(Syms);

  const size_t NS = N.numStates();
  if (NS == 0) {
    // Empty automaton: the empty language, as a single rejecting state.
    Result.setStart(Result.addState(false));
    return Result;
  }
  const size_t W64 = (NS + 63) / 64;

  // Dense symbol index per NFA edge, flattened per state (CSR). Symbols are
  // ranked by code, so index order == symbol order.
  std::vector<uint32_t> EdgeOff(NS + 1, 0);
  for (StateId S = 0; S < NS; ++S)
    EdgeOff[S + 1] =
        EdgeOff[S] + static_cast<uint32_t>(N.edges(S).size());
  std::vector<std::pair<uint32_t, StateId>> EdgeDat(EdgeOff[NS]);
  {
    const AlphabetMap &Map = Result.alphabetMap();
    for (StateId S = 0; S < NS; ++S) {
      uint32_t Cursor = EdgeOff[S];
      for (const NfaEdge &E : N.edges(S))
        EdgeDat[Cursor++] = {Map.indexOf(E.Symbol), E.Target};
    }
  }

  // Accepting states as a bitset.
  std::vector<uint64_t> AccBits(W64, 0);
  for (StateId S = 0; S < NS; ++S)
    if (N.isAccepting(S))
      setBit(AccBits.data(), S);

  bool HasEps = false;
  for (StateId S = 0; S < NS && !HasEps; ++S)
    HasEps = !N.epsilons(S).empty();

  // In-place epsilon closure over a bitset.
  std::vector<StateId> CloseWork;
  auto Close = [&](std::vector<uint64_t> &Set) {
    if (!HasEps)
      return;
    CloseWork.clear();
    forEachBit(Set.data(), W64, [&](StateId S) { CloseWork.push_back(S); });
    while (!CloseWork.empty()) {
      StateId S = CloseWork.back();
      CloseWork.pop_back();
      for (StateId T : N.epsilons(S))
        if (!testBit(Set.data(), T)) {
          setBit(Set.data(), T);
          CloseWork.push_back(T);
        }
    }
  };

  auto IsAcceptingSet = [&](const std::vector<uint64_t> &Set) {
    for (size_t W = 0; W < W64; ++W)
      if (Set[W] & AccBits[W])
        return true;
    return false;
  };

  std::unordered_map<std::vector<uint64_t>, StateId, WordsHash> Index;
  std::deque<std::vector<uint64_t>> Work;

  auto InternState = [&](std::vector<uint64_t> Set) -> StateId {
    auto It = Index.find(Set);
    if (It != Index.end())
      return It->second;
    StateId Id = Result.addState(IsAcceptingSet(Set));
    Index.emplace(Set, Id);
    Work.push_back(std::move(Set));
    return Id;
  };

  std::vector<uint64_t> StartSet(W64, 0);
  setBit(StartSet.data(), N.start());
  Close(StartSet);
  Result.setStart(InternState(std::move(StartSet)));

  // Per-symbol successor buffers, reused across iterations; only the
  // touched slices are cleared.
  std::vector<uint64_t> Buf(size_t(K) * W64, 0);
  std::vector<uint8_t> SymTouched(K, 0);
  std::vector<uint32_t> Touched;

  while (!Work.empty()) {
    std::vector<uint64_t> Set = std::move(Work.front());
    Work.pop_front();
    StateId From = Index.at(Set);

    Touched.clear();
    forEachBit(Set.data(), W64, [&](StateId S) {
      for (uint32_t E = EdgeOff[S]; E < EdgeOff[S + 1]; ++E) {
        auto [SymIdx, Target] = EdgeDat[E];
        if (!SymTouched[SymIdx]) {
          SymTouched[SymIdx] = 1;
          Touched.push_back(SymIdx);
        }
        setBit(Buf.data() + size_t(SymIdx) * W64, Target);
      }
    });
    // Ascending symbol order keeps the discovery numbering deterministic
    // (and identical to the classic by-symbol-map construction).
    std::sort(Touched.begin(), Touched.end());

    for (uint32_t SymIdx : Touched) {
      uint64_t *Slice = Buf.data() + size_t(SymIdx) * W64;
      std::vector<uint64_t> Next(Slice, Slice + W64);
      std::fill(Slice, Slice + W64, 0);
      SymTouched[SymIdx] = 0;
      Close(Next);
      Result.setEdge(From, Syms[SymIdx], InternState(std::move(Next)));
    }
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Completion
//===----------------------------------------------------------------------===//

Dfa sus::automata::complete(const Dfa &D,
                            const std::vector<SymbolCode> &Alphabet) {
  SUS_AUDIT_AUTOMATON(D);
  assert(std::is_sorted(Alphabet.begin(), Alphabet.end()) &&
         "alphabet must be sorted");
  KernelTimerScope Timer("automata.complete");
  Dfa Result;
  std::vector<SymbolCode> All;
  std::set_union(Alphabet.begin(), Alphabet.end(), D.alphabet().begin(),
                 D.alphabet().end(), std::back_inserter(All));
  Result.reserveAlphabet(All);

  const StateId N = static_cast<StateId>(D.numStates());
  for (StateId S = 0; S < N; ++S)
    Result.addState(D.isAccepting(S));
  StateId Sink = Result.addState(false);
  Result.setStart(D.start());

  for (StateId S = 0; S < N; ++S) {
    for (const NfaEdge &E : D.edges(S))
      Result.setEdge(S, E.Symbol, E.Target);
    for (SymbolCode Sym : Alphabet)
      if (D.step(S, Sym) == Dfa::NoState)
        Result.setEdge(S, Sym, Sink);
  }
  for (SymbolCode Sym : Alphabet)
    Result.setEdge(Sink, Sym, Sink);
  return Result;
}

//===----------------------------------------------------------------------===//
// Emptiness and containment
//===----------------------------------------------------------------------===//

bool sus::automata::isEmpty(const Dfa &D) {
  SUS_AUDIT_AUTOMATON(D);
  KernelTimerScope Timer("automata.isEmpty");
  if (D.numStates() == 0)
    return true;
  if (D.isAccepting(D.start()))
    return false;
  std::vector<bool> Seen(D.numStates(), false);
  std::deque<StateId> Work;
  Seen[D.start()] = true;
  Work.push_back(D.start());
  while (!Work.empty()) {
    StateId S = Work.front();
    Work.pop_front();
    for (const NfaEdge &E : D.edges(S)) {
      if (Seen[E.Target])
        continue;
      if (D.isAccepting(E.Target))
        return false;
      Seen[E.Target] = true;
      Work.push_back(E.Target);
    }
  }
  return true;
}

bool sus::automata::containedIn(const Dfa &A, const Dfa &B) {
  SUS_AUDIT_AUTOMATON(A);
  SUS_AUDIT_AUTOMATON(B);
  KernelTimerScope Timer("automata.containedIn");
  if (A.numStates() == 0)
    return true;

  // Pairs (a, b) of the implicit product A ⊗ ¬B, where b == DeadSide once
  // B has fallen off (the virtual completion's sink, which ¬B accepts).
  constexpr StateId DeadSide = Dfa::NoState;
  auto Counterexample = [&](StateId SA, StateId SB) {
    return A.isAccepting(SA) && (SB == DeadSide || !B.isAccepting(SB));
  };

  StateId SB0 = B.numStates() == 0 ? DeadSide : B.start();
  if (Counterexample(A.start(), SB0))
    return false;
  std::unordered_set<uint64_t, PairKeyHash> Seen;
  std::deque<uint64_t> Work;
  Seen.insert(packPair(A.start(), SB0));
  Work.push_back(packPair(A.start(), SB0));
  while (!Work.empty()) {
    uint64_t Key = Work.front();
    Work.pop_front();
    StateId SA = static_cast<StateId>(Key >> 32);
    StateId SB = static_cast<StateId>(Key);
    for (const NfaEdge &E : A.edges(SA)) {
      StateId TB = SB == DeadSide ? DeadSide : B.step(SB, E.Symbol);
      uint64_t Next = packPair(E.Target, TB);
      if (!Seen.insert(Next).second)
        continue;
      if (Counterexample(E.Target, TB))
        return false;
      Work.push_back(Next);
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Minimization (Hopcroft)
//===----------------------------------------------------------------------===//

namespace {

/// Hopcroft partition refinement over a complete DFA given as a dense
/// next-state table (\p Next, M states × K symbols). Returns the block id
/// of every state; blocks are the Myhill–Nerode classes. O(K·M·log M).
std::vector<uint32_t> hopcroftPartition(uint32_t M, uint32_t K,
                                        const std::vector<uint32_t> &Next,
                                        const std::vector<bool> &Acc) {
  // Inverse transitions, CSR per symbol: bucket (a, t) holds the states s
  // with Next[s·K + a] == t.
  std::vector<uint32_t> InvOff(size_t(K) * M + 1, 0);
  for (uint32_t S = 0; S < M; ++S)
    for (uint32_t A = 0; A < K; ++A)
      ++InvOff[size_t(A) * M + Next[size_t(S) * K + A] + 1];
  for (size_t I = 1; I < InvOff.size(); ++I)
    InvOff[I] += InvOff[I - 1];
  std::vector<uint32_t> InvDat(size_t(M) * K);
  {
    std::vector<uint32_t> Cursor(InvOff.begin(), InvOff.end() - 1);
    for (uint32_t S = 0; S < M; ++S)
      for (uint32_t A = 0; A < K; ++A)
        InvDat[Cursor[size_t(A) * M + Next[size_t(S) * K + A]]++] = S;
  }

  // Refinable partition: Elems is a permutation of states grouped by
  // block; each block is the range [First[b], Past[b]) with a marked
  // prefix of MarkedCnt[b] elements.
  std::vector<uint32_t> Elems(M), Loc(M), Blk(M);
  std::vector<uint32_t> First, Past, MarkedCnt;

  uint32_t NumAcc = 0;
  for (uint32_t S = 0; S < M; ++S)
    NumAcc += Acc[S];
  {
    uint32_t NonPos = 0, AccPos = M - NumAcc;
    for (uint32_t S = 0; S < M; ++S) {
      uint32_t P = Acc[S] ? AccPos++ : NonPos++;
      Elems[P] = S;
      Loc[S] = P;
    }
  }
  if (NumAcc == 0 || NumAcc == M) {
    First = {0};
    Past = {M};
    MarkedCnt = {0};
    for (uint32_t S = 0; S < M; ++S)
      Blk[S] = 0;
    return Blk; // No observation distinguishes any two states.
  }
  First = {0, M - NumAcc};
  Past = {M - NumAcc, M};
  MarkedCnt = {0, 0};
  for (uint32_t S = 0; S < M; ++S)
    Blk[S] = Acc[S] ? 1 : 0;

  // Splitter worklist, encoded block·K + symbol.
  std::vector<uint8_t> InW(size_t(M) * K, 0);
  std::vector<uint64_t> WL;
  uint32_t Smaller = NumAcc <= M - NumAcc ? 1 : 0;
  for (uint32_t A = 0; A < K; ++A) {
    InW[size_t(Smaller) * K + A] = 1;
    WL.push_back(uint64_t(Smaller) * K + A);
  }

  std::vector<uint32_t> Pre, TouchedBlocks;
  while (!WL.empty()) {
    uint64_t Enc = WL.back();
    WL.pop_back();
    uint32_t B = static_cast<uint32_t>(Enc / K);
    uint32_t A = static_cast<uint32_t>(Enc % K);
    InW[Enc] = 0;

    // Gather the preimage of block B under symbol A before any swapping.
    Pre.clear();
    for (uint32_t I = First[B]; I < Past[B]; ++I) {
      uint32_t T = Elems[I];
      for (uint32_t J = InvOff[size_t(A) * M + T];
           J < InvOff[size_t(A) * M + T + 1]; ++J)
        Pre.push_back(InvDat[J]);
    }

    // Mark: move preimage members to the front of their blocks.
    for (uint32_t S : Pre) {
      uint32_t SB = Blk[S];
      uint32_t MPos = First[SB] + MarkedCnt[SB];
      if (Loc[S] < MPos)
        continue; // Already marked.
      if (MarkedCnt[SB] == 0)
        TouchedBlocks.push_back(SB);
      uint32_t Other = Elems[MPos];
      Elems[MPos] = S;
      Elems[Loc[S]] = Other;
      Loc[Other] = Loc[S];
      Loc[S] = MPos;
      ++MarkedCnt[SB];
    }

    // Split every touched block into (marked | unmarked).
    for (uint32_t SB : TouchedBlocks) {
      uint32_t Cnt = MarkedCnt[SB];
      MarkedCnt[SB] = 0;
      if (Cnt == Past[SB] - First[SB])
        continue; // Whole block in the preimage: nothing to split.
      uint32_t NB = static_cast<uint32_t>(First.size());
      First.push_back(First[SB]);
      Past.push_back(First[SB] + Cnt);
      MarkedCnt.push_back(0);
      First[SB] += Cnt; // Old id keeps the unmarked part.
      for (uint32_t I = First[NB]; I < Past[NB]; ++I)
        Blk[Elems[I]] = NB;

      uint32_t SizeOld = Past[SB] - First[SB];
      uint32_t SizeNew = Cnt;
      for (uint32_t C = 0; C < K; ++C) {
        uint64_t EncOld = uint64_t(SB) * K + C;
        uint64_t EncNew = uint64_t(NB) * K + C;
        if (InW[EncOld]) {
          // (old block, C) is pending: both halves must be processed.
          InW[EncNew] = 1;
          WL.push_back(EncNew);
        } else {
          // Hopcroft's trick: the smaller half suffices.
          uint64_t EncSmall = SizeNew <= SizeOld ? EncNew : EncOld;
          InW[EncSmall] = 1;
          WL.push_back(EncSmall);
        }
      }
    }
    TouchedBlocks.clear();
  }
  return Blk;
}

} // namespace

Dfa sus::automata::minimize(const Dfa &D) {
  SUS_AUDIT_AUTOMATON(D);
  KernelTimerScope Timer("automata.minimize");
  const std::vector<SymbolCode> &Alphabet = D.alphabet();
  Dfa C = complete(D, Alphabet);
  const uint32_t K = static_cast<uint32_t>(Alphabet.size());
  const uint32_t N = static_cast<uint32_t>(C.numStates());

  // Drop unreachable states first so the partition refinement only sees
  // the live part.
  std::vector<bool> Reach(N, false);
  std::deque<StateId> BfsWork;
  Reach[C.start()] = true;
  BfsWork.push_back(C.start());
  while (!BfsWork.empty()) {
    StateId S = BfsWork.front();
    BfsWork.pop_front();
    for (const NfaEdge &E : C.edges(S))
      if (!Reach[E.Target]) {
        Reach[E.Target] = true;
        BfsWork.push_back(E.Target);
      }
  }

  // Compact the reachable part (ascending id order, for determinism).
  std::vector<StateId> Compact;
  std::vector<uint32_t> ToCompact(N, ~0u);
  for (StateId S = 0; S < N; ++S)
    if (Reach[S]) {
      ToCompact[S] = static_cast<uint32_t>(Compact.size());
      Compact.push_back(S);
    }
  const uint32_t M = static_cast<uint32_t>(Compact.size());

  std::vector<uint32_t> Next(size_t(M) * K);
  std::vector<bool> Acc(M);
  for (uint32_t I = 0; I < M; ++I) {
    Acc[I] = C.isAccepting(Compact[I]);
    for (uint32_t A = 0; A < K; ++A) {
      StateId T = C.stepIndex(Compact[I], A);
      assert(T != Dfa::NoState && "completed DFA must be total");
      Next[size_t(I) * K + A] = ToCompact[T];
    }
  }

  std::vector<uint32_t> Blk = hopcroftPartition(M, K, Next, Acc);

  // Build the quotient automaton over reachable classes, interned in
  // first-occurrence scan order (start first) for a deterministic result.
  Dfa Result;
  Result.reserveAlphabet(Alphabet);
  std::vector<StateId> ClassState(M, Dfa::NoState);
  auto InternClass = [&](uint32_t CompactId) -> StateId {
    uint32_t B = Blk[CompactId];
    if (ClassState[B] != Dfa::NoState)
      return ClassState[B];
    StateId Id = Result.addState(Acc[CompactId]);
    ClassState[B] = Id;
    return Id;
  };

  Result.setStart(InternClass(ToCompact[C.start()]));
  std::vector<bool> Expanded(M, false);
  for (uint32_t I = 0; I < M; ++I) {
    uint32_t B = Blk[I];
    if (Expanded[B])
      continue;
    Expanded[B] = true;
    StateId From = InternClass(I);
    for (uint32_t A = 0; A < K; ++A)
      Result.setEdge(From, Alphabet[A], InternClass(Next[size_t(I) * K + A]));
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Equivalence
//===----------------------------------------------------------------------===//

bool sus::automata::equivalent(const Dfa &A, const Dfa &B) {
  KernelTimerScope Timer("automata.equivalent");
  return containedIn(A, B) && containedIn(B, A);
}
