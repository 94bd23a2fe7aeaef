//===- tests/AutomataTest.cpp - automata library unit tests ---------------===//

#include "automata/Nfa.h"
#include "automata/Ops.h"

#include <gtest/gtest.h>

#include <random>

using namespace sus::automata;

namespace {

/// NFA for (ab)* over {a=0, b=1}.
Nfa makeAbStar() {
  Nfa N;
  StateId Q0 = N.addState(true);
  StateId Q1 = N.addState(false);
  N.setStart(Q0);
  N.addEdge(Q0, 0, Q1);
  N.addEdge(Q1, 1, Q0);
  return N;
}

/// NFA with nondeterminism and epsilons: accepts words containing "aa".
Nfa makeContainsAa() {
  Nfa N;
  StateId Q0 = N.addState(false);
  StateId Q1 = N.addState(false);
  StateId Q2 = N.addState(true);
  N.setStart(Q0);
  N.addEdge(Q0, 0, Q0);
  N.addEdge(Q0, 1, Q0);
  N.addEdge(Q0, 0, Q1);
  N.addEdge(Q1, 0, Q2);
  N.addEdge(Q2, 0, Q2);
  N.addEdge(Q2, 1, Q2);
  return N;
}

TEST(NfaTest, AcceptsTracksWordMembership) {
  Nfa N = makeAbStar();
  EXPECT_TRUE(N.accepts({}));
  EXPECT_TRUE(N.accepts({0, 1}));
  EXPECT_TRUE(N.accepts({0, 1, 0, 1}));
  EXPECT_FALSE(N.accepts({0}));
  EXPECT_FALSE(N.accepts({1, 0}));
  EXPECT_FALSE(N.accepts({0, 0, 1}));
}

TEST(NfaTest, EpsilonClosureFollowsChains) {
  Nfa N;
  StateId Q0 = N.addState();
  StateId Q1 = N.addState();
  StateId Q2 = N.addState(true);
  N.setStart(Q0);
  N.addEpsilon(Q0, Q1);
  N.addEpsilon(Q1, Q2);
  auto C = N.epsilonClosure({Q0});
  EXPECT_EQ(C.size(), 3u);
  EXPECT_TRUE(N.accepts({}));
}

TEST(NfaTest, AlphabetCollectsEdgeSymbols) {
  Nfa N = makeContainsAa();
  const auto &A = N.alphabet();
  EXPECT_EQ(A, (std::vector<SymbolCode>{0, 1}));
}

TEST(NfaTest, AlphabetStaysSortedUnderInsertionOrder) {
  Nfa N;
  StateId Q0 = N.addState(true);
  N.setStart(Q0);
  N.addEdge(Q0, 7, Q0);
  N.addEdge(Q0, 2, Q0);
  N.addEdge(Q0, 7, Q0); // Duplicate symbol: alphabet unchanged.
  N.addEdge(Q0, 5, Q0);
  EXPECT_EQ(N.alphabet(), (std::vector<SymbolCode>{2, 5, 7}));
}

TEST(DfaTest, SetEdgeOverwritesDuplicate) {
  Dfa D;
  StateId Q0 = D.addState(false);
  StateId Q1 = D.addState(true);
  StateId Q2 = D.addState(false);
  D.setStart(Q0);
  D.setEdge(Q0, 3, Q1);
  EXPECT_EQ(D.step(Q0, 3), Q1);
  // Duplicate (state, symbol): the last write wins and the state keeps
  // exactly one edge on the symbol.
  D.setEdge(Q0, 3, Q2);
  EXPECT_EQ(D.step(Q0, 3), Q2);
  unsigned Count = 0;
  for (const NfaEdge &E : D.edges(Q0)) {
    EXPECT_EQ(E.Symbol, 3u);
    EXPECT_EQ(E.Target, Q2);
    ++Count;
  }
  EXPECT_EQ(Count, 1u);
}

TEST(DfaTest, EdgesViewIsAscendingAndSkipsMissing) {
  Dfa D;
  StateId Q0 = D.addState();
  StateId Q1 = D.addState();
  D.setStart(Q0);
  // Insert out of order, with a gap (symbol 4 is only defined on Q1, so
  // Q0's row has an absent cell to skip).
  D.setEdge(Q0, 9, Q1);
  D.setEdge(Q1, 4, Q0);
  D.setEdge(Q0, 1, Q0);
  std::vector<SymbolCode> Syms;
  std::vector<StateId> Targets;
  for (const NfaEdge &E : D.edges(Q0)) {
    Syms.push_back(E.Symbol);
    Targets.push_back(E.Target);
  }
  EXPECT_EQ(Syms, (std::vector<SymbolCode>{1, 9}));
  EXPECT_EQ(Targets, (std::vector<StateId>{Q0, Q1}));
  EXPECT_TRUE(D.edges(D.addState()).empty());
}

TEST(DfaTest, AlphabetGrowthPreservesExistingEdges) {
  Dfa D;
  StateId Q0 = D.addState(true);
  D.setStart(Q0);
  // Each insertion lands at a different rank (front, back, middle) and
  // forces the table to re-layout around the existing edges.
  D.setEdge(Q0, 50, Q0);
  D.setEdge(Q0, 10, Q0);
  D.setEdge(Q0, 90, Q0);
  D.setEdge(Q0, 30, Q0);
  D.setEdge(Q0, 70, Q0);
  for (SymbolCode Sym : {10u, 30u, 50u, 70u, 90u})
    EXPECT_EQ(D.step(Q0, Sym), Q0) << "symbol " << Sym;
  EXPECT_EQ(D.step(Q0, 20), Dfa::NoState);
  EXPECT_EQ(D.alphabet(), (std::vector<SymbolCode>{10, 30, 50, 70, 90}));
}

TEST(AuditTest, AlphabetMapAcceptsTypicalConstruction) {
  AlphabetMap M;
  EXPECT_TRUE(M.audit());
  // Mixed small (direct-mapped) and huge (sparse) codes, inserted out of
  // order so every insertion shifts ranks.
  for (SymbolCode Sym : {7u, 3u, (1u << 20), 5u, (1u << 18), 1u})
    M.insert(Sym);
  EXPECT_TRUE(M.audit());
  EXPECT_EQ(M.size(), 6u);
}

TEST(AuditTest, NfaAcceptsTypicalConstruction) {
  EXPECT_TRUE(Nfa().audit());
  Nfa N = makeContainsAa();
  StateId Extra = N.addState();
  N.addEpsilon(Extra, N.start());
  EXPECT_TRUE(N.audit());
}

TEST(AuditTest, DfaAcceptsConstructionAndKernelResults) {
  EXPECT_TRUE(Dfa().audit());
  Dfa D = determinize(makeContainsAa());
  EXPECT_TRUE(D.audit());
  EXPECT_TRUE(complete(D, D.alphabet()).audit());
  EXPECT_TRUE(minimize(D).audit());
}

TEST(AuditTest, DfaAuditSurvivesRelayout) {
  // Same construction as AlphabetGrowthPreservesExistingEdges: every
  // setEdge inserts at a fresh rank and re-layouts the flat table.
  Dfa D;
  StateId Q0 = D.addState(true);
  D.setStart(Q0);
  for (SymbolCode Sym : {50u, 10u, 90u, 30u, 70u}) {
    D.setEdge(Q0, Sym, Q0);
    EXPECT_TRUE(D.audit()) << "after inserting symbol " << Sym;
  }
}

TEST(DeterminizeTest, PreservesLanguageOnExamples) {
  Nfa N = makeContainsAa();
  Dfa D = determinize(N);
  std::vector<std::vector<SymbolCode>> Words = {
      {},      {0},       {0, 0},    {1, 0, 0},      {0, 1, 0},
      {1, 1},  {0, 0, 1}, {1, 0, 1}, {0, 1, 0, 0, 1}};
  for (const auto &W : Words)
    EXPECT_EQ(N.accepts(W), D.accepts(W));
}

TEST(DeterminizeTest, ResultIsDeterministicAndReachable) {
  Dfa D = determinize(makeContainsAa());
  // The subset construction of this 3-state NFA has at most 2^3 states.
  EXPECT_LE(D.numStates(), 8u);
}

TEST(CompleteTest, AddsSinkForMissingEdges) {
  Dfa D;
  StateId Q0 = D.addState(true);
  D.setStart(Q0);
  // No edges at all; completion over {0,1} adds a sink.
  Dfa C = complete(D, {0, 1});
  EXPECT_EQ(C.numStates(), 2u);
  EXPECT_NE(C.step(Q0, 0), Dfa::NoState);
  EXPECT_NE(C.step(Q0, 1), Dfa::NoState);
}

TEST(IsEmptyTest, OnlyReachableAcceptanceCounts) {
  // An accepting state nobody reaches leaves the language empty.
  Dfa D;
  StateId Q0 = D.addState(false);
  StateId Q1 = D.addState(false);
  StateId Q2 = D.addState(true);
  D.setStart(Q0);
  D.setEdge(Q0, 0, Q1);
  D.setEdge(Q1, 0, Q0);
  EXPECT_TRUE(isEmpty(D));
  D.setEdge(Q1, 1, Q2);
  EXPECT_FALSE(isEmpty(D));

  Dfa Eps;
  Eps.setStart(Eps.addState(true));
  EXPECT_FALSE(isEmpty(Eps));
  EXPECT_TRUE(isEmpty(Dfa()));
}

TEST(MinimizeTest, CollapsesEquivalentStates) {
  // Two redundant accepting states reachable on 0 and on 1.
  Dfa D;
  StateId Q0 = D.addState(false);
  StateId Q1 = D.addState(true);
  StateId Q2 = D.addState(true);
  D.setStart(Q0);
  D.setEdge(Q0, 0, Q1);
  D.setEdge(Q0, 1, Q2);
  Dfa M = minimize(D);
  // Minimal complete DFA: start, accept, sink.
  EXPECT_EQ(M.numStates(), 3u);
  EXPECT_TRUE(equivalent(D, M));
}

TEST(MinimizeTest, PreservesLanguage) {
  Dfa D = determinize(makeContainsAa());
  Dfa M = minimize(D);
  EXPECT_TRUE(equivalent(D, M));
  EXPECT_LE(M.numStates(), D.numStates() + 1); // +1 for the added sink.
}

TEST(EquivalentTest, DetectsDifference) {
  Dfa A = determinize(makeAbStar());
  Dfa B = determinize(makeContainsAa());
  EXPECT_FALSE(equivalent(A, B));
  EXPECT_TRUE(equivalent(A, A));
}

//===----------------------------------------------------------------------===//
// Property-style randomized sweeps
//===----------------------------------------------------------------------===//

Nfa randomNfa(std::mt19937 &Rng, unsigned NumStates, unsigned NumSymbols,
              unsigned NumEdges) {
  Nfa N;
  for (unsigned I = 0; I < NumStates; ++I)
    N.addState(Rng() % 4 == 0);
  N.setStart(0);
  for (unsigned I = 0; I < NumEdges; ++I)
    N.addEdge(Rng() % NumStates, Rng() % NumSymbols, Rng() % NumStates);
  if (Rng() % 2)
    N.addEpsilon(Rng() % NumStates, Rng() % NumStates);
  return N;
}

std::vector<SymbolCode> randomWord(std::mt19937 &Rng, unsigned NumSymbols,
                                   unsigned MaxLen) {
  std::vector<SymbolCode> W(Rng() % (MaxLen + 1));
  for (auto &S : W)
    S = Rng() % NumSymbols;
  return W;
}

class RandomAutomataTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomAutomataTest, DeterminizationPreservesLanguage) {
  std::mt19937 Rng(GetParam());
  Nfa N = randomNfa(Rng, 6, 3, 12);
  Dfa D = determinize(N);
  for (int I = 0; I < 60; ++I) {
    auto W = randomWord(Rng, 3, 8);
    EXPECT_EQ(N.accepts(W), D.accepts(W));
  }
}

TEST_P(RandomAutomataTest, MinimizationPreservesLanguage) {
  std::mt19937 Rng(GetParam() + 1000);
  Nfa N = randomNfa(Rng, 6, 3, 12);
  Dfa D = determinize(N);
  Dfa M = minimize(D);
  for (int I = 0; I < 60; ++I) {
    auto W = randomWord(Rng, 3, 8);
    EXPECT_EQ(D.accepts(W), M.accepts(W));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAutomataTest,
                         ::testing::Range(0u, 12u));

} // namespace
