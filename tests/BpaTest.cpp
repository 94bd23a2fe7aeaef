//===- tests/BpaTest.cpp - BPA rendering tests ----------------------------===//

#include "bpa/FromHist.h"
#include "hist/Derive.h"
#include "hist/HistContext.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace sus;
using namespace sus::bpa;
using namespace sus::hist;

namespace {

class BpaTest : public ::testing::Test {
protected:
  HistContext Hist;
  BpaContext Bpa;

  PolicyRef phi() {
    PolicyRef P;
    P.Name = Hist.symbol("phi");
    return P;
  }

  /// All trace prefixes of length <= Depth from a history expression.
  std::set<std::vector<std::string>> histTraces(const Expr *E,
                                                unsigned Depth) {
    std::set<std::vector<std::string>> Out;
    std::vector<std::string> Cur;
    collectHist(E, Depth, Cur, Out);
    return Out;
  }

  void collectHist(const Expr *E, unsigned Depth,
                   std::vector<std::string> &Cur,
                   std::set<std::vector<std::string>> &Out) {
    Out.insert(Cur);
    if (Depth == 0)
      return;
    for (Transition &T : derive(Hist, E)) {
      Cur.push_back(T.L.str(Hist.interner()));
      collectHist(T.Target, Depth - 1, Cur, Out);
      Cur.pop_back();
    }
  }

  /// All trace prefixes of length <= Depth from a BPA term.
  std::set<std::vector<std::string>> bpaTraces(const Term *T,
                                               unsigned Depth) {
    std::set<std::vector<std::string>> Out;
    std::vector<std::string> Cur;
    collectBpa(T, Depth, Cur, Out);
    return Out;
  }

  void collectBpa(const Term *T, unsigned Depth,
                  std::vector<std::string> &Cur,
                  std::set<std::vector<std::string>> &Out) {
    Out.insert(Cur);
    if (Depth == 0)
      return;
    for (BpaTransition &Tr : deriveBpa(Bpa, T)) {
      Cur.push_back(Tr.L.str(Hist.interner()));
      collectBpa(Tr.Target, Depth - 1, Cur, Out);
      Cur.pop_back();
    }
  }

  void expectSameTraces(const Expr *E, unsigned Depth) {
    const Term *T = fromHist(Bpa, Hist, E);
    EXPECT_EQ(histTraces(E, Depth), bpaTraces(T, Depth));
  }
};

TEST_F(BpaTest, NilAndActionsStep) {
  EXPECT_TRUE(deriveBpa(Bpa, Bpa.nil()).empty());
  const Term *A = Bpa.action(Label::event(Event{Hist.symbol("a"), Value()}));
  auto Steps = deriveBpa(Bpa, A);
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_TRUE(Steps[0].Target->isNil());
}

TEST_F(BpaTest, SeqNormalizesNil) {
  const Term *A = Bpa.action(Label::tau());
  EXPECT_EQ(Bpa.seq(Bpa.nil(), A), A);
  EXPECT_EQ(Bpa.seq(A, Bpa.nil()), A);
}

TEST_F(BpaTest, SumIsCommutativeAndIdempotent) {
  const Term *A = Bpa.action(Label::tau());
  const Term *B = Bpa.action(Label::event(Event{Hist.symbol("b"), Value()}));
  EXPECT_EQ(Bpa.sum(A, B), Bpa.sum(B, A));
  EXPECT_EQ(Bpa.sum(A, A), A);
}

TEST_F(BpaTest, SeqStepsThroughLeftThenRight) {
  const Term *A = Bpa.action(Label::event(Event{Hist.symbol("a"), Value()}));
  const Term *B = Bpa.action(Label::event(Event{Hist.symbol("b"), Value()}));
  const Term *S = Bpa.seq(A, B);
  auto Steps = deriveBpa(Bpa, S);
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_EQ(Steps[0].Target, B);
}

TEST_F(BpaTest, VariableUnfoldsDefinition) {
  Symbol X = Hist.symbol("X");
  const Term *A = Bpa.action(Label::event(Event{Hist.symbol("a"), Value()}));
  Bpa.define(X, Bpa.seq(A, Bpa.var(X)));
  auto Steps = deriveBpa(Bpa, Bpa.var(X));
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_EQ(Steps[0].Target, Bpa.var(X));
}

TEST_F(BpaTest, UndefinedVariableIsStuck) {
  EXPECT_TRUE(deriveBpa(Bpa, Bpa.var(Hist.symbol("Y"))).empty());
}

TEST_F(BpaTest, TranslationPreservesTracesOnSequence) {
  const Expr *E = Hist.seq({Hist.event("a"), Hist.event("b"),
                            Hist.event("c", 3)});
  expectSameTraces(E, 4);
}

TEST_F(BpaTest, TranslationPreservesTracesOnChoices) {
  const Expr *E = Hist.send(
      "a", Hist.extChoice({
               {CommAction::input(Hist.symbol("x")), Hist.event("e1")},
               {CommAction::input(Hist.symbol("y")), Hist.event("e2")},
           }));
  expectSameTraces(E, 4);
}

TEST_F(BpaTest, TranslationPreservesTracesOnRequestAndFraming) {
  const Expr *E = Hist.framing(
      phi(), Hist.request(3, PolicyRef(), Hist.send("a", Hist.empty())));
  expectSameTraces(E, 6);
}

TEST_F(BpaTest, TranslationPreservesTracesOnRecursion) {
  const Expr *E = Hist.mu(
      "h", Hist.send("ping", Hist.receive("pong", Hist.var("h"))));
  expectSameTraces(E, 6);
}

TEST_F(BpaTest, LtsOfRegularTermIsFinite) {
  const Expr *E = Hist.mu(
      "h", Hist.send("a", Hist.seq(Hist.event("e"), Hist.var("h"))));
  const Term *T = fromHist(Bpa, Hist, E);
  BpaLts Lts = toLts(Bpa, T);
  EXPECT_TRUE(Lts.Regular);
  EXPECT_LE(Lts.States.size(), 4u);
}

TEST_F(BpaTest, NonRegularTermIsDetected) {
  // X ≝ a·X·b is the textbook context-free BPA: its reachable terms grow
  // without bound.
  Symbol X = Hist.symbol("X");
  const Term *A = Bpa.action(Label::event(Event{Hist.symbol("a"), Value()}));
  const Term *B = Bpa.action(Label::event(Event{Hist.symbol("b"), Value()}));
  Bpa.define(X, Bpa.seq(A, Bpa.seq(Bpa.var(X), B)));
  BpaLts Lts = toLts(Bpa, Bpa.var(X), /*MaxStates=*/64);
  EXPECT_FALSE(Lts.Regular);
}

TEST_F(BpaTest, PrintTermRendersStructure) {
  Symbol X = Hist.symbol("X");
  const Term *A = Bpa.action(Label::event(Event{Hist.symbol("a"), Value()}));
  const Term *T = Bpa.sum(Bpa.seq(A, Bpa.var(X)), Bpa.nil());
  std::string S = printTerm(Bpa, Hist.interner(), T);
  EXPECT_NE(S.find("alpha_a"), std::string::npos);
  EXPECT_NE(S.find("X"), std::string::npos);
  EXPECT_NE(S.find("0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Random-expression trace preservation
//===----------------------------------------------------------------------===//

/// A random closed expression mixing events, choices, framings, requests
/// and guarded tail recursion (kept small: traces are enumerated).
const Expr *randomSmallExpr(HistContext &Ctx, std::mt19937 &Rng,
                            unsigned Depth, unsigned &NextRequest) {
  if (Depth == 0)
    return Rng() % 2 ? Ctx.empty()
                     : Ctx.event("e" + std::to_string(Rng() % 3));
  switch (Rng() % 6) {
  case 0:
    return Ctx.seq(randomSmallExpr(Ctx, Rng, Depth - 1, NextRequest),
                   randomSmallExpr(Ctx, Rng, Depth - 1, NextRequest));
  case 1: {
    std::vector<ChoiceBranch> Branches;
    unsigned N = 1 + Rng() % 2;
    for (unsigned I = 0; I < N; ++I)
      Branches.push_back(
          {CommAction::input(Ctx.symbol("c" + std::to_string(I))),
           randomSmallExpr(Ctx, Rng, Depth - 1, NextRequest)});
    return Ctx.extChoice(std::move(Branches));
  }
  case 2: {
    std::vector<ChoiceBranch> Branches;
    unsigned N = 1 + Rng() % 2;
    for (unsigned I = 0; I < N; ++I)
      Branches.push_back(
          {CommAction::output(Ctx.symbol("c" + std::to_string(I))),
           randomSmallExpr(Ctx, Rng, Depth - 1, NextRequest)});
    return Ctx.intChoice(std::move(Branches));
  }
  case 3: {
    PolicyRef Phi;
    Phi.Name = Ctx.symbol("phi");
    return Ctx.framing(Phi,
                       randomSmallExpr(Ctx, Rng, Depth - 1, NextRequest));
  }
  case 4:
    return Ctx.request(NextRequest++, PolicyRef(),
                       randomSmallExpr(Ctx, Rng, Depth - 1, NextRequest));
  default: {
    const Expr *Tail = Rng() % 2
                           ? Ctx.var("h")
                           : randomSmallExpr(Ctx, Rng, Depth - 1,
                                             NextRequest);
    return Ctx.mu("h",
                  Ctx.prefix(CommAction::output(Ctx.symbol("loop")), Tail));
  }
  }
}

class BpaRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BpaRandomTest, TranslationPreservesBoundedTraces) {
  HistContext Hist;
  BpaContext Bpa;
  std::mt19937 Rng(GetParam());
  unsigned NextRequest = 1;
  const Expr *E = randomSmallExpr(Hist, Rng, 3, NextRequest);
  const Term *T = fromHist(Bpa, Hist, E);

  // Enumerate all trace prefixes up to depth 5 on both sides.
  struct Walker {
    HistContext &Hist;
    BpaContext &Bpa;
    std::set<std::vector<std::string>> HistTraces, BpaTraces;

    void walkHist(const Expr *E, unsigned Depth,
                  std::vector<std::string> &Cur) {
      HistTraces.insert(Cur);
      if (Depth == 0)
        return;
      for (Transition &Tr : derive(Hist, E)) {
        Cur.push_back(Tr.L.str(Hist.interner()));
        walkHist(Tr.Target, Depth - 1, Cur);
        Cur.pop_back();
      }
    }
    void walkBpa(const Term *T, unsigned Depth,
                 std::vector<std::string> &Cur) {
      BpaTraces.insert(Cur);
      if (Depth == 0)
        return;
      for (BpaTransition &Tr : deriveBpa(Bpa, T)) {
        Cur.push_back(Tr.L.str(Hist.interner()));
        walkBpa(Tr.Target, Depth - 1, Cur);
        Cur.pop_back();
      }
    }
  } W{Hist, Bpa, {}, {}};

  std::vector<std::string> Cur;
  W.walkHist(E, 5, Cur);
  W.walkBpa(T, 5, Cur);
  EXPECT_EQ(W.HistTraces, W.BpaTraces);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BpaRandomTest, ::testing::Range(0u, 20u));

TEST_F(BpaTest, CanTerminateFollowsStructure) {
  const Term *A = Bpa.action(Label::tau());
  EXPECT_TRUE(canTerminate(Bpa, Bpa.nil()));
  EXPECT_FALSE(canTerminate(Bpa, A));
  EXPECT_TRUE(canTerminate(Bpa, Bpa.sum(A, Bpa.nil())));
  EXPECT_FALSE(canTerminate(Bpa, Bpa.seq(A, Bpa.nil())));
}

TEST_F(BpaTest, LongChainsLoopAlongTheRightSpine) {
  // A 100,000-term chain of terminable heads (a + 0) . (a + 0) . ... : the
  // kernels must loop along the spine, not recurse once per term.
  constexpr size_t N = 100000;
  const Term *A = Bpa.action(Label::event(Event{Hist.symbol("a"), Value()}));
  const Term *Head = Bpa.sum(A, Bpa.nil());
  std::vector<const Term *> Suffixes; // Suffixes[I] = the last I+1 heads.
  Suffixes.reserve(N);
  const Term *Chain = Head;
  Suffixes.push_back(Chain);
  for (size_t I = 1; I < N; ++I) {
    Chain = Bpa.seq(Head, Chain);
    Suffixes.push_back(Chain);
  }

  EXPECT_TRUE(canTerminate(Bpa, Chain));
  EXPECT_FALSE(canTerminate(Bpa, Bpa.seq(Chain, A)));

  // Every head can step on a and vanish, leaving the chain after it.
  std::vector<BpaTransition> Steps = deriveBpa(Bpa, Chain);
  ASSERT_EQ(Steps.size(), N);
  for (size_t I = 0; I < N; ++I) {
    ASSERT_EQ(Steps[I].L, Steps[0].L);
    ASSERT_EQ(Steps[I].Target, I + 1 < N ? Suffixes[N - 2 - I] : Bpa.nil())
        << "step " << I;
  }

  std::string HeadText = printTerm(Bpa, Hist.interner(), Head);
  EXPECT_EQ(HeadText, "(alpha_a + 0)");
  std::string Text = printTerm(Bpa, Hist.interner(), Chain);
  EXPECT_EQ(Text.size(), N * HeadText.size() + (N - 1) * 5);
  EXPECT_EQ(Text.substr(0, 1 + HeadText.size() + 3),
            "(" + HeadText + " . ");
  EXPECT_EQ(Text.substr(Text.size() - HeadText.size() - (N - 1)),
            HeadText + std::string(N - 1, ')'));
}

} // namespace
