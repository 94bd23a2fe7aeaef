//===- tests/AutomataDiffTest.cpp - randomized differential sweeps --------===//
///
/// \file
/// Differential tests for the flat automata substrate: every optimized
/// kernel (hashed subset construction, Hopcroft minimization, emptiness,
/// the on-the-fly containment and equivalence checks) is cross-checked
/// against brute-force bounded-word enumeration and against a
/// materialized pipeline (determinize the union, minimize, compare the
/// minimal automata) on ~100 seeded random automata plus the degenerate
/// corners (empty automata, all-epsilon cycles, single-letter alphabets).
/// Seeds are fixed; nothing depends on wall-clock or iteration order of
/// unordered containers.
///
//===----------------------------------------------------------------------===//

#include "automata/Nfa.h"
#include "automata/Ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

using namespace sus::automata;

namespace {

Nfa randomNfa(std::mt19937 &Rng, unsigned NumStates, unsigned NumSymbols,
              unsigned NumEdges, unsigned NumEps) {
  Nfa N;
  for (unsigned I = 0; I < NumStates; ++I)
    N.addState(Rng() % 3 == 0);
  N.setStart(0);
  for (unsigned I = 0; I < NumEdges; ++I)
    N.addEdge(Rng() % NumStates, Rng() % NumSymbols, Rng() % NumStates);
  for (unsigned I = 0; I < NumEps; ++I)
    N.addEpsilon(Rng() % NumStates, Rng() % NumStates);
  return N;
}

/// Calls \p F with every word over {0..NumSymbols-1} of length <= MaxLen,
/// in length-then-lexicographic order.
template <typename Fn>
void forEachWord(unsigned NumSymbols, unsigned MaxLen, Fn F) {
  std::vector<SymbolCode> Word;
  F(Word);
  for (unsigned Len = 1; Len <= MaxLen; ++Len) {
    Word.assign(Len, 0);
    while (true) {
      F(Word);
      unsigned I = Len;
      while (I > 0 && ++Word[I - 1] == NumSymbols)
        Word[--I] = 0;
      if (I == 0)
        break;
    }
  }
}

/// A random DFA with 1..MaxStates states over {0..NumSymbols-1}; each
/// (state, symbol) cell is filled with probability 3/4.
Dfa randomDfa(std::mt19937 &Rng, unsigned MaxStates, unsigned NumSymbols) {
  Dfa D;
  unsigned N = 1 + Rng() % MaxStates;
  for (unsigned I = 0; I < N; ++I)
    D.addState(Rng() % 3 == 0);
  D.setStart(0);
  for (StateId S = 0; S < N; ++S)
    for (SymbolCode Sym = 0; Sym < NumSymbols; ++Sym)
      if (Rng() % 4 != 0)
        D.setEdge(S, Sym, Rng() % N);
  return D;
}

/// An NFA for L(A) ∪ L(B): a fresh start state with epsilons into copies
/// of both operands.
Nfa unionNfa(const Dfa &A, const Dfa &B) {
  Nfa U;
  StateId Start = U.addState(false);
  U.setStart(Start);
  for (const Dfa *D : {&A, &B}) {
    StateId Base = static_cast<StateId>(U.numStates());
    for (StateId S = 0; S < D->numStates(); ++S)
      U.addState(D->isAccepting(S));
    for (StateId S = 0; S < D->numStates(); ++S)
      for (const NfaEdge &E : D->edges(S))
        U.addEdge(Base + S, E.Symbol, Base + E.Target);
    U.addEpsilon(Start, Base + D->start());
  }
  return U;
}

/// True if two complete DFAs over the same alphabet, every state
/// reachable, are equal up to state numbering: a walk from the starts
/// must pair states consistently (acceptance and every successor).
bool isomorphic(const Dfa &X, const Dfa &Y) {
  if (X.numStates() != Y.numStates() || X.alphabet() != Y.alphabet())
    return false;
  std::vector<StateId> Pair(X.numStates(), Dfa::NoState);
  std::vector<StateId> Work = {X.start()};
  Pair[X.start()] = Y.start();
  while (!Work.empty()) {
    StateId S = Work.back();
    Work.pop_back();
    if (X.isAccepting(S) != Y.isAccepting(Pair[S]))
      return false;
    for (SymbolCode Sym : X.alphabet()) {
      StateId TX = X.step(S, Sym);
      StateId TY = Y.step(Pair[S], Sym);
      if (Pair[TX] == Dfa::NoState) {
        Pair[TX] = TY;
        Work.push_back(TX);
      } else if (Pair[TX] != TY) {
        return false;
      }
    }
  }
  return true;
}

/// The joint sorted alphabet of two DFAs.
std::vector<SymbolCode> jointAlphabet(const Dfa &A, const Dfa &B) {
  std::vector<SymbolCode> Joint;
  std::set_union(A.alphabet().begin(), A.alphabet().end(),
                 B.alphabet().begin(), B.alphabet().end(),
                 std::back_inserter(Joint));
  return Joint;
}

/// The minimal complete DFA of \p D over \p Alphabet: two automata accept
/// the same language over it iff these are isomorphic.
Dfa canonical(const Dfa &D, const std::vector<SymbolCode> &Alphabet) {
  return minimize(complete(D, Alphabet));
}

/// A one-state automaton accepting 0* — a non-empty language to pit the
/// empty automaton against.
Nfa makeSingleLetterLoop() {
  Nfa N;
  StateId Q0 = N.addState(true);
  N.setStart(Q0);
  N.addEdge(Q0, 0, Q0);
  return N;
}

constexpr unsigned NumSymbols = 3;
constexpr unsigned MaxLen = 6;

class AutomataDiffTest : public ::testing::TestWithParam<unsigned> {};

/// N, determinize(N) and minimize(determinize(N)) agree on every word up
/// to MaxLen (exhaustive, 3^6 = 729 words per seed), and isEmpty agrees
/// with the enumeration.
TEST_P(AutomataDiffTest, PipelineAgreesWithBruteForceEnumeration) {
  std::mt19937 Rng(GetParam());
  Nfa N = randomNfa(Rng, 2 + Rng() % 6, NumSymbols, 4 + Rng() % 12,
                    Rng() % 3);
  Dfa D = determinize(N);
  Dfa M = minimize(D);
  bool AnyAccepted = false;
  forEachWord(NumSymbols, MaxLen, [&](const std::vector<SymbolCode> &W) {
    bool InN = N.accepts(W);
    AnyAccepted |= InN;
    ASSERT_EQ(InN, D.accepts(W)) << "determinize diverges, seed "
                                 << GetParam();
    ASSERT_EQ(InN, M.accepts(W)) << "minimize diverges, seed " << GetParam();
  });
  // Minimization is idempotent: a second pass cannot shrink the result.
  EXPECT_EQ(minimize(M).numStates(), M.numStates());
  // A shortest accepted word is shorter than the minimal automaton, so the
  // enumeration decides emptiness whenever it reaches that far.
  if (AnyAccepted || M.numStates() <= MaxLen + 1) {
    EXPECT_EQ(isEmpty(D), !AnyAccepted) << "seed " << GetParam();
  }
}

/// The on-the-fly containment and equivalence checks agree with the
/// materialized pipeline: L(A) ⊆ L(B) iff the minimal automaton of
/// L(A) ∪ L(B) is that of L(B), and L(A) = L(B) iff the minimal automata
/// of A and B are isomorphic.
TEST_P(AutomataDiffTest, OnTheFlyOpsMatchMaterializedPipelines) {
  std::mt19937 Rng(1000 + GetParam());
  Dfa A = determinize(
      randomNfa(Rng, 2 + Rng() % 6, NumSymbols, 4 + Rng() % 12, Rng() % 3));
  Dfa B = determinize(
      randomNfa(Rng, 2 + Rng() % 6, NumSymbols, 4 + Rng() % 12, Rng() % 3));
  std::vector<SymbolCode> Joint = jointAlphabet(A, B);
  Dfa CanonA = canonical(A, Joint);
  Dfa CanonB = canonical(B, Joint);
  Dfa U = determinize(unionNfa(A, B));
  Dfa CanonU = canonical(U, Joint);

  EXPECT_EQ(containedIn(A, B), isomorphic(CanonU, CanonB));
  EXPECT_EQ(containedIn(B, A), isomorphic(CanonU, CanonA));
  EXPECT_EQ(equivalent(A, B), isomorphic(CanonA, CanonB));

  // The positive cases random pairs rarely hit.
  EXPECT_TRUE(containedIn(A, U));
  EXPECT_TRUE(containedIn(B, U));
  EXPECT_TRUE(equivalent(A, CanonA));
  EXPECT_TRUE(equivalent(U, CanonU));
}

/// Containment, equivalence and emptiness against brute force on
/// automata small enough that the enumeration is exact: a shortest word
/// in L(A) \ L(B) visits each state of the product of the minimal
/// complete automata at most once, so words up to that product's size
/// decide containment.
TEST_P(AutomataDiffTest, ContainmentAgreesWithBruteForceEnumeration) {
  std::mt19937 Rng(2000 + GetParam());
  constexpr unsigned SmallSymbols = 2;
  Dfa A = randomDfa(Rng, 3, SmallSymbols);
  Dfa B = randomDfa(Rng, 3, SmallSymbols);
  std::vector<SymbolCode> Joint = jointAlphabet(A, B);
  unsigned Bound = static_cast<unsigned>(canonical(A, Joint).numStates() *
                                         canonical(B, Joint).numStates());
  ASSERT_LE(Bound, 16u);

  bool AInB = true, BInA = true, AEmpty = true;
  forEachWord(SmallSymbols, Bound, [&](const std::vector<SymbolCode> &W) {
    bool InA = A.accepts(W);
    bool InB = B.accepts(W);
    AInB &= !InA || InB;
    BInA &= !InB || InA;
    AEmpty &= !InA;
  });
  EXPECT_EQ(containedIn(A, B), AInB) << "seed " << GetParam();
  EXPECT_EQ(containedIn(B, A), BInA) << "seed " << GetParam();
  EXPECT_EQ(equivalent(A, B), AInB && BInA) << "seed " << GetParam();
  EXPECT_EQ(isEmpty(A), AEmpty) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutomataDiffTest,
                         ::testing::Range(0u, 34u));

//===----------------------------------------------------------------------===//
// Degenerate corners
//===----------------------------------------------------------------------===//

TEST(AutomataDiffEdgeCases, EmptyAutomatonIsEmptyLanguage) {
  Nfa N; // Zero states.
  Dfa D = determinize(N);
  EXPECT_TRUE(isEmpty(D));
  EXPECT_FALSE(D.accepts({}));
  Dfa M = minimize(D);
  EXPECT_TRUE(isEmpty(M));

  Dfa Other = determinize(makeSingleLetterLoop());
  EXPECT_TRUE(containedIn(D, Other));
  EXPECT_FALSE(containedIn(Other, D));
  EXPECT_TRUE(equivalent(D, determinize(Nfa())));
  EXPECT_FALSE(equivalent(D, Other));
}

TEST(AutomataDiffEdgeCases, AllEpsilonCycleCollapsesToOneVerdict) {
  // A 4-cycle of epsilons with one accepting member: the closure of the
  // start hits it, so the empty word (and nothing else) is accepted.
  Nfa N;
  for (int I = 0; I < 4; ++I)
    N.addState(false);
  N.setStart(0);
  N.setAccepting(2, true);
  N.addEpsilon(0, 1);
  N.addEpsilon(1, 2);
  N.addEpsilon(2, 3);
  N.addEpsilon(3, 0);
  Dfa D = determinize(N);
  EXPECT_TRUE(D.accepts({}));
  EXPECT_EQ(D.numStates(), 1u);
  EXPECT_FALSE(isEmpty(D));
  Dfa M = minimize(D);
  EXPECT_TRUE(equivalent(D, M));
}

TEST(AutomataDiffEdgeCases, SingleLetterAlphabetCountsModulo) {
  // a^3k over the single letter a=5 (an off-zero code, exercising the
  // dense alphabet map).
  Nfa N;
  StateId Q0 = N.addState(true);
  StateId Q1 = N.addState(false);
  StateId Q2 = N.addState(false);
  N.setStart(Q0);
  N.addEdge(Q0, 5, Q1);
  N.addEdge(Q1, 5, Q2);
  N.addEdge(Q2, 5, Q0);
  Dfa D = determinize(N);
  for (unsigned Len = 0; Len <= 9; ++Len) {
    std::vector<SymbolCode> W(Len, 5);
    EXPECT_EQ(D.accepts(W), Len % 3 == 0) << "length " << Len;
  }
  Dfa M = minimize(D);
  EXPECT_EQ(M.numStates(), 3u);
  EXPECT_TRUE(equivalent(D, M));
  // a^6k is contained in a^3k but not vice versa.
  Nfa Six;
  std::vector<StateId> Qs;
  for (int I = 0; I < 6; ++I)
    Qs.push_back(Six.addState(I == 0));
  Six.setStart(Qs[0]);
  for (int I = 0; I < 6; ++I)
    Six.addEdge(Qs[I], 5, Qs[(I + 1) % 6]);
  Dfa D6 = determinize(Six);
  EXPECT_TRUE(containedIn(D6, D));
  EXPECT_FALSE(containedIn(D, D6));
  EXPECT_FALSE(equivalent(D, D6));
}

} // namespace
