//===- tests/HistTest.cpp - history expression unit tests -----------------===//

#include "hist/Bisim.h"
#include "hist/Derive.h"
#include "hist/HistContext.h"
#include "hist/TraceEquiv.h"
#include "hist/Printer.h"
#include "hist/TransitionSystem.h"
#include "hist/WellFormed.h"
#include "fuzz/Generator.h"
#include "support/Casting.h"
#include "syntax/FileParser.h"
#include "syntax/HistParser.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>

using namespace sus;
using namespace sus::hist;

namespace {

class HistTest : public ::testing::Test {
protected:
  HistContext Ctx;

  PolicyRef phi() {
    PolicyRef P;
    P.Name = Ctx.symbol("phi");
    P.Args.push_back({Value::integer(1)});
    return P;
  }
};

//===----------------------------------------------------------------------===//
// Construction, congruence, hash-consing
//===----------------------------------------------------------------------===//

TEST_F(HistTest, EmptyIsUnique) {
  EXPECT_EQ(Ctx.empty(), Ctx.empty());
  EXPECT_TRUE(Ctx.empty()->isEmpty());
}

TEST_F(HistTest, SeqNormalizesEpsilonLeftAndRight) {
  const Expr *A = Ctx.event("a");
  EXPECT_EQ(Ctx.seq(Ctx.empty(), A), A);
  EXPECT_EQ(Ctx.seq(A, Ctx.empty()), A);
}

TEST_F(HistTest, SeqIsRightNested) {
  const Expr *A = Ctx.event("a");
  const Expr *B = Ctx.event("b");
  const Expr *C = Ctx.event("c");
  const Expr *Left = Ctx.seq(Ctx.seq(A, B), C);
  const Expr *Right = Ctx.seq(A, Ctx.seq(B, C));
  EXPECT_EQ(Left, Right);
  const auto *S = dyn_cast<SeqExpr>(Left);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->head(), A);
}

TEST_F(HistTest, LongSequenceChainsInternLinearly) {
  // An n-term `;` chain is n-1 right-nested sequence nodes over its
  // distinct leaves. Pinned by node count, not time: a left fold that
  // re-nests the prefix per term would intern O(n^2) nodes.
  constexpr size_t N = 4000;
  DiagnosticEngine Diags;
  ASSERT_NE(syntax::parseHistExpr(Ctx, "a?.eps", Diags), nullptr);
  ASSERT_NE(syntax::parseHistExpr(Ctx, "%e(1)", Diags), nullptr);
  size_t Before = Ctx.numNodes();
  std::string Src = "a?.eps";
  for (size_t I = 1; I < N; ++I)
    Src += I % 2 ? "; %e(1)" : "; a?.eps";
  const Expr *Chain = syntax::parseHistExpr(Ctx, Src, Diags);
  ASSERT_NE(Chain, nullptr);
  EXPECT_EQ(Ctx.numNodes() - Before, N - 1);

  // Appending to a long head re-nests its whole spine in one loop: each
  // of the n suffixes ending in the new leaf is one fresh node.
  const Expr *Leaf = Ctx.event("z");
  Before = Ctx.numNodes();
  const Expr *Longer = Ctx.seq(Chain, Leaf);
  EXPECT_EQ(Ctx.numNodes() - Before, N);
  size_t Length = 1;
  for (const Expr *E = Longer; const auto *S = dyn_cast<SeqExpr>(E);
       E = S->tail()) {
    EXPECT_FALSE(isa<SeqExpr>(S->head()));
    ++Length;
  }
  EXPECT_EQ(Length, N + 1);
}

TEST_F(HistTest, HashConsingSharesStructurallyEqualNodes) {
  const Expr *A1 = Ctx.seq(Ctx.event("a"), Ctx.event("b"));
  const Expr *A2 = Ctx.seq(Ctx.event("a"), Ctx.event("b"));
  EXPECT_EQ(A1, A2);
}

TEST_F(HistTest, EventsDifferingInArgumentAreDistinct) {
  EXPECT_NE(Ctx.event("p", 45), Ctx.event("p", 46));
  EXPECT_NE(Ctx.event("p", 45), Ctx.event("p"));
  EXPECT_NE(Ctx.event("sgn", "s1"), Ctx.event("sgn", "s2"));
}

TEST_F(HistTest, ChoiceBranchesAreCanonicalized) {
  ChoiceBranch B1{CommAction::input(Ctx.symbol("a")), Ctx.empty()};
  ChoiceBranch B2{CommAction::input(Ctx.symbol("b")), Ctx.empty()};
  EXPECT_EQ(Ctx.extChoice({B1, B2}), Ctx.extChoice({B2, B1}));
  EXPECT_EQ(Ctx.extChoice({B1, B1, B2}), Ctx.extChoice({B1, B2}));
}

TEST_F(HistTest, MuWithoutOccurrenceIsDropped) {
  const Expr *Body = Ctx.event("a");
  EXPECT_EQ(Ctx.mu("h", Body), Body);
}

TEST_F(HistTest, FreeVarsSeesThroughBinders) {
  const Expr *H = Ctx.var("h");
  EXPECT_EQ(Ctx.freeVars(H).size(), 1u);
  const Expr *Closed = Ctx.mu("h", Ctx.send("a", H));
  EXPECT_TRUE(Ctx.isClosed(Closed));
  // Shadowing: inner mu binds its own h.
  const Expr *Shadow =
      Ctx.mu("h", Ctx.send("a", Ctx.mu("h", Ctx.send("b", Ctx.var("h")))));
  EXPECT_TRUE(Ctx.isClosed(Shadow));
}

TEST_F(HistTest, SubstituteReplacesOnlyFreeOccurrences) {
  const Expr *H = Ctx.var("h");
  const Expr *K = Ctx.event("k");
  EXPECT_EQ(Ctx.substitute(H, Ctx.symbol("h"), K), K);

  const Expr *Inner = Ctx.mu("h", Ctx.send("a", Ctx.var("h")));
  // h is bound inside Inner: substitution is the identity there.
  EXPECT_EQ(Ctx.substitute(Inner, Ctx.symbol("h"), K), Inner);
}

//===----------------------------------------------------------------------===//
// Operational semantics (the rules of §3)
//===----------------------------------------------------------------------===//

TEST_F(HistTest, EventFiresAndTerminates) {
  auto Steps = derive(Ctx, Ctx.event("a", 7));
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_TRUE(Steps[0].L.isEvent());
  EXPECT_EQ(Steps[0].L.asEvent().Arg, Value::integer(7));
  EXPECT_TRUE(Steps[0].Target->isEmpty());
}

TEST_F(HistTest, EmptyHasNoTransitions) {
  EXPECT_TRUE(derive(Ctx, Ctx.empty()).empty());
}

TEST_F(HistTest, InternalChoiceOffersEachOutput) {
  const Expr *E = Ctx.intChoice({
      {CommAction::output(Ctx.symbol("a")), Ctx.event("x")},
      {CommAction::output(Ctx.symbol("b")), Ctx.event("y")},
  });
  auto Steps = derive(Ctx, E);
  ASSERT_EQ(Steps.size(), 2u);
  for (const Transition &T : Steps) {
    EXPECT_TRUE(T.L.isComm());
    EXPECT_TRUE(T.L.asComm().isOutput());
  }
}

TEST_F(HistTest, ExternalChoiceOffersEachInput) {
  const Expr *E = Ctx.extChoice({
      {CommAction::input(Ctx.symbol("a")), Ctx.event("x")},
      {CommAction::input(Ctx.symbol("b")), Ctx.event("y")},
  });
  auto Steps = derive(Ctx, E);
  ASSERT_EQ(Steps.size(), 2u);
  for (const Transition &T : Steps)
    EXPECT_TRUE(T.L.asComm().isInput());
}

TEST_F(HistTest, RequestOpensAndLeavesCloseMark) {
  const Expr *R = Ctx.request(5, phi(), Ctx.event("a"));
  auto Steps = derive(Ctx, R);
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_TRUE(Steps[0].L.isOpen());
  EXPECT_EQ(Steps[0].L.request(), 5u);
  // Residual: a . close_5.
  auto Steps2 = derive(Ctx, Steps[0].Target);
  ASSERT_EQ(Steps2.size(), 1u);
  EXPECT_TRUE(Steps2[0].L.isEvent());
  auto Steps3 = derive(Ctx, Steps2[0].Target);
  ASSERT_EQ(Steps3.size(), 1u);
  EXPECT_TRUE(Steps3[0].L.isClose());
  EXPECT_TRUE(Steps3[0].Target->isEmpty());
}

TEST_F(HistTest, FramingOpensAndLeavesFrameClose) {
  const Expr *F = Ctx.framing(phi(), Ctx.event("a"));
  auto Steps = derive(Ctx, F);
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_EQ(Steps[0].L.kind(), LabelKind::FrameOpen);
  auto Steps2 = derive(Ctx, Steps[0].Target);
  ASSERT_EQ(Steps2.size(), 1u);
  auto Steps3 = derive(Ctx, Steps2[0].Target);
  ASSERT_EQ(Steps3.size(), 1u);
  EXPECT_EQ(Steps3[0].L.kind(), LabelKind::FrameClose);
}

TEST_F(HistTest, SeqStepsThroughHead) {
  const Expr *E = Ctx.seq(Ctx.event("a"), Ctx.event("b"));
  auto Steps = derive(Ctx, E);
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_EQ(Steps[0].Target, Ctx.event("b"));
}

TEST_F(HistTest, RecursionUnfoldsThroughGuard) {
  // µh. a!.h — an infinite sender.
  const Expr *Loop = Ctx.mu("h", Ctx.send("a", Ctx.var("h")));
  auto Steps = derive(Ctx, Loop);
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_TRUE(Steps[0].L.asComm().isOutput());
  // The derivative folds back to the same hash-consed state.
  EXPECT_EQ(Steps[0].Target, Loop);
}

TEST_F(HistTest, DegenerateUnguardedMuIsStuckNotDivergent) {
  const Expr *Bad = Ctx.mu("h", Ctx.var("h"));
  EXPECT_TRUE(derive(Ctx, Bad).empty());
}

TEST_F(HistTest, TransitionSystemOfRecursiveSenderIsFinite) {
  const Expr *Loop = Ctx.mu(
      "h", Ctx.send("a", Ctx.receive("b", Ctx.var("h"))));
  TransitionSystem Ts(Ctx, Loop);
  EXPECT_TRUE(Ts.isComplete());
  EXPECT_EQ(Ts.numStates(), 2u);
  EXPECT_EQ(Ts.numEdges(), 2u);
}

TEST_F(HistTest, TransitionSystemCountsBranches) {
  // a!.(b? + c?) has states: root, (b?+c?), ε.
  const Expr *E = Ctx.send(
      "a", Ctx.extChoice({
               {CommAction::input(Ctx.symbol("b")), Ctx.empty()},
               {CommAction::input(Ctx.symbol("c")), Ctx.empty()},
           }));
  TransitionSystem Ts(Ctx, E);
  EXPECT_EQ(Ts.numStates(), 3u);
  EXPECT_EQ(Ts.numEdges(), 3u);
}

//===----------------------------------------------------------------------===//
// Well-formedness
//===----------------------------------------------------------------------===//

TEST_F(HistTest, WellFormedAcceptsGuardedTailRecursion) {
  const Expr *Good = Ctx.mu("h", Ctx.send("a", Ctx.var("h")));
  EXPECT_TRUE(isWellFormed(Ctx, Good));
}

TEST_F(HistTest, WellFormedRejectsFreeVariable) {
  auto Issues = wellFormedIssues(Ctx, Ctx.var("h"));
  ASSERT_FALSE(Issues.empty());
  EXPECT_EQ(Issues[0].Kind, WellFormedIssueKind::FreeVariable);
}

TEST_F(HistTest, WellFormedRejectsUnguardedRecursion) {
  const Expr *Bad = Ctx.mu("h", Ctx.var("h"));
  auto Issues = wellFormedIssues(Ctx, Bad);
  bool FoundUnguarded = false;
  for (const auto &I : Issues)
    FoundUnguarded |= I.Kind == WellFormedIssueKind::UnguardedRecursion;
  EXPECT_TRUE(FoundUnguarded);
}

TEST_F(HistTest, WellFormedRejectsEventGuardedRecursion) {
  // µh. %e ; h — guarded by an event only: the projection would lose the
  // guard, so the paper requires communication guards.
  const Expr *Bad = Ctx.mu("h", Ctx.seq(Ctx.event("e"), Ctx.var("h")));
  auto Issues = wellFormedIssues(Ctx, Bad);
  bool FoundUnguarded = false;
  for (const auto &I : Issues)
    FoundUnguarded |= I.Kind == WellFormedIssueKind::UnguardedRecursion;
  EXPECT_TRUE(FoundUnguarded);
}

TEST_F(HistTest, WellFormedRejectsNonTailRecursion) {
  // µh. (a!.h) ; %b — the recursion variable is followed by more work.
  const Expr *Bad = Ctx.mu(
      "h", Ctx.seq(Ctx.send("a", Ctx.var("h")), Ctx.event("b")));
  auto Issues = wellFormedIssues(Ctx, Bad);
  bool FoundNonTail = false;
  for (const auto &I : Issues)
    FoundNonTail |= I.Kind == WellFormedIssueKind::NonTailRecursion;
  EXPECT_TRUE(FoundNonTail);
}

TEST_F(HistTest, WellFormedRejectsRecursionInsideRequest) {
  const Expr *Bad =
      Ctx.mu("h", Ctx.send("a", Ctx.request(1, phi(), Ctx.var("h"))));
  EXPECT_FALSE(isWellFormed(Ctx, Bad));
}

TEST_F(HistTest, WellFormedAcceptsSeqAfterCommunication) {
  // µh. a!.(%e ; h): the tail position after the event is still guarded by
  // the a! prefix.
  const Expr *Good =
      Ctx.mu("h", Ctx.send("a", Ctx.seq(Ctx.event("e"), Ctx.var("h"))));
  EXPECT_TRUE(isWellFormed(Ctx, Good));
}

TEST_F(HistTest, CheckWellFormedReportsDiagnostics) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(checkWellFormed(Ctx, Ctx.var("h"), Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Well-formedness facts vs. the walks they replaced
//===----------------------------------------------------------------------===//

/// The free-variable walk HistContext ran before nodes carried their free
/// variables: the oracle for Expr::freeVars and isClosed.
void collectFreeVars(const Expr *E, std::set<Symbol> &Bound,
                     std::set<Symbol> &Free) {
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Event:
  case ExprKind::CloseMark:
  case ExprKind::FrameOpen:
  case ExprKind::FrameClose:
    return;
  case ExprKind::Var: {
    Symbol Name = cast<VarExpr>(E)->name();
    if (!Bound.count(Name))
      Free.insert(Name);
    return;
  }
  case ExprKind::Mu: {
    const auto *M = cast<MuExpr>(E);
    bool Inserted = Bound.insert(M->var()).second;
    collectFreeVars(M->body(), Bound, Free);
    if (Inserted)
      Bound.erase(M->var());
    return;
  }
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    collectFreeVars(S->head(), Bound, Free);
    collectFreeVars(S->tail(), Bound, Free);
    return;
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      collectFreeVars(B.Body, Bound, Free);
    return;
  case ExprKind::Request:
    collectFreeVars(cast<RequestExpr>(E)->body(), Bound, Free);
    return;
  case ExprKind::Framing:
    collectFreeVars(cast<FramingExpr>(E)->body(), Bound, Free);
    return;
  }
}

/// Whether every run of \p E communicates before it ends or recurs, by
/// walk (the oracle for Expr::communicates).
bool walkCommunicates(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    return true;
  case ExprKind::Seq:
    return walkCommunicates(cast<SeqExpr>(E)->head()) ||
           walkCommunicates(cast<SeqExpr>(E)->tail());
  case ExprKind::Mu:
    return walkCommunicates(cast<MuExpr>(E)->body());
  case ExprKind::Request:
    return walkCommunicates(cast<RequestExpr>(E)->body());
  case ExprKind::Framing:
    return walkCommunicates(cast<FramingExpr>(E)->body());
  default:
    return false;
  }
}

/// The occurrence bits of free variable \p Var in \p E, by walk: \p Tail
/// and \p Guarded describe the position of \p E itself.
uint8_t walkOccurrences(const Expr *E, Symbol Var, bool Tail, bool Guarded) {
  switch (E->kind()) {
  case ExprKind::Var:
    if (cast<VarExpr>(E)->name() != Var)
      return 0;
    return (Tail ? 0 : FreeVarSet::NonTail) |
           (Guarded ? 0 : FreeVarSet::Unguarded);
  case ExprKind::Mu: {
    const auto *M = cast<MuExpr>(E);
    return M->var() == Var ? 0
                           : walkOccurrences(M->body(), Var, Tail, Guarded);
  }
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    return walkOccurrences(S->head(), Var, false, Guarded) |
           walkOccurrences(S->tail(), Var, Tail,
                           Guarded || walkCommunicates(S->head()));
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice: {
    uint8_t Bits = 0;
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      Bits |= walkOccurrences(B.Body, Var, Tail, true);
    return Bits;
  }
  case ExprKind::Request:
    return walkOccurrences(cast<RequestExpr>(E)->body(), Var, false, Guarded);
  case ExprKind::Framing:
    return walkOccurrences(cast<FramingExpr>(E)->body(), Var, false, Guarded);
  default:
    return 0;
  }
}

/// Checks the facts of \p Root and of every node below it against the
/// walks; returns how many nodes were checked.
size_t expectFactsMatchWalks(HistContext &Ctx, const Expr *Root) {
  std::set<const Expr *> Seen;
  std::vector<const Expr *> Work = {Root};
  while (!Work.empty()) {
    const Expr *E = Work.back();
    Work.pop_back();
    if (!Seen.insert(E).second)
      continue;
    std::string Text = print(Ctx, E);

    std::set<Symbol> Bound, Free;
    collectFreeVars(E, Bound, Free);
    EXPECT_EQ(Ctx.isClosed(E), Free.empty()) << Text;
    EXPECT_EQ(Ctx.freeVars(E), Free) << Text;
    for (Symbol V : Free)
      EXPECT_EQ(E->freeVars()->find(V)->Occurs,
                walkOccurrences(E, V, /*Tail=*/true, /*Guarded=*/false))
          << Text << " at " << Ctx.interner().text(V);
    EXPECT_EQ(E->communicates(), walkCommunicates(E)) << Text;
    EXPECT_EQ(isWellFormed(Ctx, E), wellFormedIssues(Ctx, E).empty()) << Text;

    switch (E->kind()) {
    case ExprKind::Mu:
      Work.push_back(cast<MuExpr>(E)->body());
      break;
    case ExprKind::Seq:
      Work.push_back(cast<SeqExpr>(E)->head());
      Work.push_back(cast<SeqExpr>(E)->tail());
      break;
    case ExprKind::ExtChoice:
    case ExprKind::IntChoice:
      for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
        Work.push_back(B.Body);
      break;
    case ExprKind::Request:
      Work.push_back(cast<RequestExpr>(E)->body());
      break;
    case ExprKind::Framing:
      Work.push_back(cast<FramingExpr>(E)->body());
      break;
    default:
      break;
    }
  }
  return Seen.size();
}

/// A random expression over two recursion variables, well-formed or not.
const Expr *randomExpr(HistContext &Ctx, std::mt19937 &Rng, unsigned Depth,
                       PolicyRef Phi) {
  const char *Vars[] = {"h", "k"};
  unsigned Pick = Depth == 0 ? Rng() % 3 : Rng() % 10;
  auto Sub = [&] { return randomExpr(Ctx, Rng, Depth - 1, Phi); };
  switch (Pick) {
  case 0:
    return Ctx.var(Vars[Rng() % 2]);
  case 1:
    return Ctx.event("e");
  case 2:
    return Ctx.empty();
  case 3:
    return Ctx.mu(Vars[Rng() % 2], Sub());
  case 4:
  case 5:
    return Ctx.seq(Sub(), Sub());
  case 6:
    return Ctx.send(Rng() % 2 ? "a" : "b", Sub());
  case 7:
    return Ctx.extChoice({{CommAction::input(Ctx.symbol("a")), Sub()},
                          {CommAction::input(Ctx.symbol("b")), Sub()}});
  case 8:
    return Ctx.request(1, Phi, Sub());
  default:
    return Ctx.framing(Phi, Sub());
  }
}

TEST_F(HistTest, WellFormedFactsMatchCheckerWalk) {
  size_t Checked = 0;

  // Generated programs: every behaviour and every node below it (bodies
  // under a µ are open, so both verdicts occur).
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    HistContext Parsed;
    DiagnosticEngine Diags;
    std::string Source = fuzz::generateProgram(Seed).source();
    std::optional<syntax::SusFile> File =
        syntax::parseSusFile(Parsed, Source, Diags);
    ASSERT_TRUE(File) << "seed " << Seed;
    for (const auto &[Loc, Service] : File->Repo.services())
      Checked += expectFactsMatchWalks(Parsed, Service);
    for (const auto &[Name, Client] : File->Clients)
      Checked += expectFactsMatchWalks(Parsed, Client);
  }

  // Random expressions, mostly ill-formed.
  std::mt19937 Rng(7);
  size_t IllFormed = 0;
  for (unsigned I = 0; I < 300; ++I) {
    const Expr *E = randomExpr(Ctx, Rng, 5, phi());
    IllFormed += !isWellFormed(Ctx, E);
    Checked += expectFactsMatchWalks(Ctx, E);
  }
  EXPECT_GT(IllFormed, 50u);

  // Hand-built: each ill-formedness, shadowing µs, and guards that only
  // count when they always happen.
  const Expr *H = Ctx.var("h");
  const Expr *K = Ctx.var("k");
  const Expr *Ev = Ctx.event("e");
  const Expr *Cases[] = {
      Ctx.mu("h", H),                                    // unguarded
      Ctx.mu("h", Ctx.seq(Ev, H)),                       // event guard only
      Ctx.mu("h", Ctx.seq(Ctx.send("a", H), Ev)),        // non-tail
      Ctx.mu("h", Ctx.send("a", Ctx.request(1, phi(), H))),
      Ctx.mu("h", Ctx.send("a", Ctx.framing(phi(), H))),
      Ctx.mu("h", Ctx.send("a", Ctx.mu("h", Ctx.seq(H, Ev)))), // shadowed
      Ctx.mu("h", Ctx.send("a", Ctx.mu("h", Ctx.send("b", H)))),
      Ctx.mu("h", Ctx.mu("k", Ctx.seq(Ev, Ctx.seq(H, K)))),
      Ctx.mu("h", Ctx.send("a", Ctx.mu("k", Ctx.extChoice(
                                             {{CommAction::input(
                                                   Ctx.symbol("b")),
                                               H},
                                              {CommAction::input(
                                                   Ctx.symbol("c")),
                                               K}})))),
      Ctx.mu("h", Ctx.seq(Ctx.mu("k", Ctx.send("a", K)), H)), // comm head
      Ctx.mu("h", Ctx.seq(Ctx.request(1, phi(), Ctx.send("a", Ev)), H)),
      Ctx.send("a", Ctx.seq(H, K)),                      // free
  };
  for (const Expr *E : Cases)
    Checked += expectFactsMatchWalks(Ctx, E);
  EXPECT_FALSE(isWellFormed(Ctx, Cases[0]));
  EXPECT_TRUE(isWellFormed(Ctx, Cases[6]));
  EXPECT_TRUE(isWellFormed(Ctx, Cases[9]));
  EXPECT_GT(Checked, 1000u);
}

//===----------------------------------------------------------------------===//
// Bisimulation
//===----------------------------------------------------------------------===//

TEST_F(HistTest, BisimIsReflexive) {
  const Expr *E = Ctx.mu("h", Ctx.send("a", Ctx.receive("b", Ctx.var("h"))));
  EXPECT_TRUE(bisimilar(Ctx, E, E));
}

TEST_F(HistTest, BisimEquatesSeqDistribution) {
  // (a!.ε)·K ~ a!.K — the Conc rule makes them indistinguishable.
  const Expr *K = Ctx.receive("k", Ctx.empty());
  const Expr *Left = Ctx.seq(Ctx.send("a", Ctx.empty()), K);
  const Expr *Right = Ctx.send("a", K);
  EXPECT_NE(Left, Right); // Different ASTs,
  EXPECT_TRUE(bisimilar(Ctx, Left, Right)); // same behaviour.
}

TEST_F(HistTest, BisimDistinguishesChoicePoint) {
  // x!.(y! ⊕ z!) vs (x!.y!) ⊕ (x!.z!): trace-equivalent but the moment of
  // commitment differs — not bisimilar.
  const Expr *Late = Ctx.send(
      "x", Ctx.intChoice({
               {CommAction::output(Ctx.symbol("y")), Ctx.empty()},
               {CommAction::output(Ctx.symbol("z")), Ctx.empty()},
           }));
  const Expr *Early = Ctx.intChoice({
      {CommAction::output(Ctx.symbol("x")), Ctx.send("y", Ctx.empty())},
      {CommAction::output(Ctx.symbol("x")), Ctx.send("z", Ctx.empty())},
  });
  EXPECT_FALSE(bisimilar(Ctx, Late, Early));
}

TEST_F(HistTest, BisimEquatesUnrolledLoops) {
  const Expr *One = Ctx.mu("h", Ctx.send("a", Ctx.var("h")));
  const Expr *Two =
      Ctx.mu("k", Ctx.send("a", Ctx.send("a", Ctx.var("k"))));
  EXPECT_TRUE(bisimilar(Ctx, One, Two));
}

TEST_F(HistTest, BisimSeparatesDifferentLabels) {
  EXPECT_FALSE(bisimilar(Ctx, Ctx.event("a"), Ctx.event("b")));
  EXPECT_FALSE(bisimilar(Ctx, Ctx.event("a", 1), Ctx.event("a", 2)));
  EXPECT_FALSE(bisimilar(Ctx, Ctx.empty(), Ctx.event("a")));
}

//===----------------------------------------------------------------------===//
// Trace equivalence
//===----------------------------------------------------------------------===//

TEST_F(HistTest, TraceEquivalenceIsCoarserThanBisim) {
  // The classic pair: trace-equivalent but not bisimilar.
  const Expr *Late = Ctx.send(
      "x", Ctx.intChoice({
               {CommAction::output(Ctx.symbol("y")), Ctx.empty()},
               {CommAction::output(Ctx.symbol("z")), Ctx.empty()},
           }));
  const Expr *Early = Ctx.intChoice({
      {CommAction::output(Ctx.symbol("x")), Ctx.send("y", Ctx.empty())},
      {CommAction::output(Ctx.symbol("x")), Ctx.send("z", Ctx.empty())},
  });
  EXPECT_TRUE(traceEquivalent(Ctx, Late, Early));
  EXPECT_FALSE(bisimilar(Ctx, Late, Early));
}

TEST_F(HistTest, TraceEquivalenceAgreesWithBisimWhenBisimilar) {
  const Expr *One = Ctx.mu("h", Ctx.send("a", Ctx.var("h")));
  const Expr *Two =
      Ctx.mu("k", Ctx.send("a", Ctx.send("a", Ctx.var("k"))));
  EXPECT_TRUE(bisimilar(Ctx, One, Two));
  EXPECT_TRUE(traceEquivalent(Ctx, One, Two));
}

TEST_F(HistTest, TraceEquivalenceSeparatesDifferentLanguages) {
  EXPECT_FALSE(traceEquivalent(Ctx, Ctx.event("a"), Ctx.event("b")));
  EXPECT_FALSE(traceEquivalent(
      Ctx, Ctx.send("a", Ctx.empty()),
      Ctx.send("a", Ctx.send("a", Ctx.empty()))));
}

TEST_F(HistTest, TraceEquivalenceSeesThroughSeqNesting) {
  const Expr *K = Ctx.receive("k", Ctx.empty());
  EXPECT_TRUE(traceEquivalent(Ctx, Ctx.seq(Ctx.send("a", Ctx.empty()), K),
                              Ctx.send("a", K)));
}

TEST_F(HistTest, CanPerformChecksTraceMembership) {
  const Expr *E = Ctx.send(
      "a", Ctx.extChoice({
               {CommAction::input(Ctx.symbol("x")), Ctx.event("done")},
               {CommAction::input(Ctx.symbol("y")), Ctx.empty()},
           }));
  auto Out = [&](std::string_view C) {
    return Label::comm(CommAction::output(Ctx.symbol(C)));
  };
  auto In = [&](std::string_view C) {
    return Label::comm(CommAction::input(Ctx.symbol(C)));
  };
  EXPECT_TRUE(canPerform(Ctx, E, {}));
  EXPECT_TRUE(canPerform(Ctx, E, {Out("a")}));
  EXPECT_TRUE(canPerform(Ctx, E, {Out("a"), In("x")}));
  EXPECT_TRUE(canPerform(
      Ctx, E, {Out("a"), In("x"), Label::event(Event{Ctx.symbol("done"),
                                                     Value()})}));
  EXPECT_FALSE(canPerform(Ctx, E, {In("a")}));
  EXPECT_FALSE(canPerform(Ctx, E, {Out("a"), In("z")}));
  EXPECT_FALSE(canPerform(
      Ctx, E, {Out("a"), In("y"), Label::event(Event{Ctx.symbol("done"),
                                                     Value()})}));
}

TEST_F(HistTest, CanPerformHandlesNondeterminism) {
  // Two branches on the same channel: the subset walk must follow both.
  const Expr *E = Ctx.intChoice({
      {CommAction::output(Ctx.symbol("a")), Ctx.event("left")},
      {CommAction::output(Ctx.symbol("a")), Ctx.event("right")},
  });
  auto OutA = Label::comm(CommAction::output(Ctx.symbol("a")));
  auto EvLeft = Label::event(Event{Ctx.symbol("left"), Value()});
  auto EvRight = Label::event(Event{Ctx.symbol("right"), Value()});
  EXPECT_TRUE(canPerform(Ctx, E, {OutA, EvLeft}));
  EXPECT_TRUE(canPerform(Ctx, E, {OutA, EvRight}));
  EXPECT_FALSE(canPerform(Ctx, E, {OutA, EvLeft, EvRight}));
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

TEST_F(HistTest, PrintsPaperShapes) {
  EXPECT_EQ(print(Ctx, Ctx.empty()), "eps");
  EXPECT_EQ(print(Ctx, Ctx.event("sgn", "s1")), "%sgn(s1)");
  EXPECT_EQ(print(Ctx, Ctx.event("p", 45)), "%p(45)");
  const Expr *Choice = Ctx.extChoice({
      {CommAction::input(Ctx.symbol("CoBo")), Ctx.send("Pay", Ctx.empty())},
      {CommAction::input(Ctx.symbol("NoAv")), Ctx.empty()},
  });
  EXPECT_EQ(print(Ctx, Choice), "CoBo? . Pay! + NoAv?");
}

TEST_F(HistTest, PrintsSeqWithSemicolons) {
  const Expr *E = Ctx.seq({Ctx.event("a"), Ctx.event("b"), Ctx.event("c")});
  EXPECT_EQ(print(Ctx, E), "%a; %b; %c");
}

TEST_F(HistTest, PrintsMuAndRequest) {
  const Expr *Loop = Ctx.mu("h", Ctx.send("a", Ctx.var("h")));
  EXPECT_EQ(print(Ctx, Loop), "mu h . a! . h");
  const Expr *R = Ctx.request(2, PolicyRef(), Ctx.event("x"));
  EXPECT_EQ(print(Ctx, R), "open 2 { %x }");
}

TEST_F(HistTest, PrintDotEmitsDigraph) {
  const Expr *Loop = Ctx.mu("h", Ctx.send("a", Ctx.var("h")));
  TransitionSystem Ts(Ctx, Loop);
  std::ostringstream OS;
  printDot(Ctx, Ts, OS, "loop");
  EXPECT_NE(OS.str().find("digraph"), std::string::npos);
  EXPECT_NE(OS.str().find("a!"), std::string::npos);
}

} // namespace
