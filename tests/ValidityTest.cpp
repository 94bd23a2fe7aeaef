//===- tests/ValidityTest.cpp - static plan-validity tests ----------------===//

#include "contract/Project.h"
#include "core/HotelExample.h"
#include "policy/Prelude.h"
#include "validity/CostAnalysis.h"
#include "validity/FrameRegularize.h"
#include "validity/StaticValidity.h"

#include <gtest/gtest.h>

using namespace sus;
using namespace sus::hist;
using namespace sus::validity;
using core::HotelExample;
using core::makeHotelExample;

namespace {

class ValidityTest : public ::testing::Test {
protected:
  ValidityTest() : Ex(makeHotelExample(Ctx)) {}
  HistContext Ctx;
  HotelExample Ex;
};

//===----------------------------------------------------------------------===//
// Regularization
//===----------------------------------------------------------------------===//

TEST_F(ValidityTest, RegularizeDropsRedundantNestedFraming) {
  const Expr *E = Ctx.framing(
      Ex.Phi1, Ctx.seq(Ctx.event("a"),
                       Ctx.framing(Ex.Phi1, Ctx.event("b"))));
  EXPECT_EQ(maxFramingNesting(E), 2u);
  const Expr *R = regularizeFramings(Ctx, E);
  EXPECT_EQ(maxFramingNesting(R), 1u);
  EXPECT_EQ(R, Ctx.framing(Ex.Phi1,
                           Ctx.seq(Ctx.event("a"), Ctx.event("b"))));
}

TEST_F(ValidityTest, RegularizeKeepsDistinctPolicies) {
  const Expr *E =
      Ctx.framing(Ex.Phi1, Ctx.framing(Ex.Phi2, Ctx.event("a")));
  EXPECT_EQ(regularizeFramings(Ctx, E), E);
}

TEST_F(ValidityTest, RegularizeSeesThroughRequestPolicies) {
  // The request's policy frames its session; an identical framing inside
  // is redundant.
  const Expr *E =
      Ctx.request(1, Ex.Phi1, Ctx.framing(Ex.Phi1, Ctx.event("a")));
  const Expr *R = regularizeFramings(Ctx, E);
  EXPECT_EQ(R, Ctx.request(1, Ex.Phi1, Ctx.event("a")));
}

TEST_F(ValidityTest, RegularizePreservesProjection) {
  // Framings are invisible to contracts: H! = (regularize H)!.
  const Expr *E = Ctx.framing(
      Ex.Phi1,
      Ctx.send("a", Ctx.framing(Ex.Phi1,
                                Ctx.receive("b", Ctx.event("x")))));
  const Expr *R = regularizeFramings(Ctx, E);
  EXPECT_EQ(contract::project(Ctx, E), contract::project(Ctx, R));
}

TEST_F(ValidityTest, RegularizeIsIdempotent) {
  const Expr *E = Ctx.framing(
      Ex.Phi1,
      Ctx.seq(Ctx.framing(Ex.Phi1, Ctx.event("a")),
              Ctx.framing(Ex.Phi2, Ctx.framing(Ex.Phi2, Ctx.event("b")))));
  const Expr *R = regularizeFramings(Ctx, E);
  EXPECT_EQ(regularizeFramings(Ctx, R), R);
}

//===----------------------------------------------------------------------===//
// The §2 plan-validity claims
//===----------------------------------------------------------------------===//

TEST_F(ValidityTest, Pi1IsSecurityValidForC1) {
  auto R = checkPlanValidity(Ctx, Ex.C1, Ex.LC1, Ex.pi1(), Ex.Repo,
                             Ex.Registry);
  EXPECT_TRUE(R.Valid) << "failure kind "
                       << static_cast<int>(R.Failure);
  EXPECT_FALSE(R.HasStuckConfiguration);
  EXPECT_GT(R.ExploredStates, 5u);
}

TEST_F(ValidityTest, BlackListedS1ViolatesPhi1) {
  plan::Plan Pi;
  Pi.bind(1, Ex.LBr);
  Pi.bind(3, Ex.LS1); // S1 is black-listed by C1.
  auto R = checkPlanValidity(Ctx, Ex.C1, Ex.LC1, Pi, Ex.Repo, Ex.Registry);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.Failure, PlanFailureKind::PolicyViolation);
  ASSERT_TRUE(R.Policy.has_value());
  EXPECT_EQ(*R.Policy, Ex.Phi1);
  // The violating trace ends with the black-listed signature event.
  ASSERT_FALSE(R.Trace.empty());
  EXPECT_NE(R.Trace.back().find("sgn"), std::string::npos);
}

TEST_F(ValidityTest, S4ViolatesBothThresholdsOfPhi1) {
  plan::Plan Pi;
  Pi.bind(1, Ex.LBr);
  Pi.bind(3, Ex.LS4); // price 50 > 45, rating 90 < 100.
  auto R = checkPlanValidity(Ctx, Ex.C1, Ex.LC1, Pi, Ex.Repo, Ex.Registry);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.Failure, PlanFailureKind::PolicyViolation);
  // The violation fires at the rating event (the price alone is fine).
  ASSERT_FALSE(R.Trace.empty());
  EXPECT_NE(R.Trace.back().find("ta"), std::string::npos);
}

TEST_F(ValidityTest, Pi3ViolatesBecauseS3BlackListedByC2) {
  auto R = checkPlanValidity(Ctx, Ex.C2, Ex.LC2, Ex.pi3(), Ex.Repo,
                             Ex.Registry);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.Failure, PlanFailureKind::PolicyViolation);
  ASSERT_TRUE(R.Policy.has_value());
  EXPECT_EQ(*R.Policy, Ex.Phi2);
}

TEST_F(ValidityTest, Pi2ValidPlanForC2PassesSecurity) {
  auto R = checkPlanValidity(Ctx, Ex.C2, Ex.LC2, Ex.pi2Valid(), Ex.Repo,
                             Ex.Registry);
  EXPECT_TRUE(R.Valid);
}

TEST_F(ValidityTest, Pi2SecurityHoldsButCompletionMayStick) {
  // π2 binds request 3 to the non-compliant S2. Security-wise nothing is
  // violated (S2's events satisfy ϕ2); the failure is a progress failure,
  // caught by the §4 compliance check, not here (angelic semantics).
  auto R = checkPlanValidity(Ctx, Ex.C2, Ex.LC2, Ex.pi2(), Ex.Repo,
                             Ex.Registry);
  EXPECT_TRUE(R.Valid);
}

TEST_F(ValidityTest, UnboundRequestIsReported) {
  plan::Plan Pi;
  Pi.bind(1, Ex.LBr); // request 3 of the broker is left unbound.
  auto R = checkPlanValidity(Ctx, Ex.C1, Ex.LC1, Pi, Ex.Repo, Ex.Registry);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.Failure, PlanFailureKind::UnboundRequest);
  ASSERT_TRUE(R.Request.has_value());
  EXPECT_EQ(*R.Request, 3u);
}

TEST_F(ValidityTest, UnknownServiceLocationIsReported) {
  plan::Plan Pi;
  Pi.bind(1, Ctx.symbol("nowhere"));
  auto R = checkPlanValidity(Ctx, Ex.C1, Ex.LC1, Pi, Ex.Repo, Ex.Registry);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.Failure, PlanFailureKind::UnknownService);
}

TEST_F(ValidityTest, ExplorationSizesAndTracesArePinned) {
  // The checker's state count and shortest trace depend on the move order
  // of the shared session semantics; these exact values pin it.
  struct Case {
    const Expr *Client;
    plan::Loc ClientLoc;
    plan::Plan Pi;
    size_t States;
    std::vector<std::string> Trace;
  };
  plan::Plan Unbound;
  Unbound.bind(1, Ex.LBr);
  plan::Plan Unknown;
  Unknown.bind(1, Ctx.symbol("nowhere"));
  std::vector<Case> Cases = {
      {Ex.C1, Ex.LC1, Ex.pi1(), 13, {}},
      {Ex.C2, Ex.LC2, Ex.pi2Valid(), 13, {}},
      {Ex.C2, Ex.LC2, Ex.pi2(), 13, {}},
      {Ex.C2, Ex.LC2, Ex.pi3(), 4,
       {"open_2:phi({s1,s3},40,70)", "tau(Req!)", "open_3:@",
        "alpha_sgn(s3)"}},
      {Ex.C1, Ex.LC1, Unbound, 3,
       {"open_1:phi(s1,45,100)", "tau(Req!)", "open_3:@"}},
      {Ex.C1, Ex.LC1, Unknown, 1, {"open_1:phi(s1,45,100)"}},
  };
  for (size_t I = 0; I < Cases.size(); ++I) {
    const Case &C = Cases[I];
    auto R = checkPlanValidity(Ctx, C.Client, C.ClientLoc, C.Pi, Ex.Repo,
                               Ex.Registry);
    EXPECT_EQ(R.ExploredStates, C.States) << "case " << I;
    EXPECT_EQ(R.Trace, C.Trace) << "case " << I;
  }
}

TEST_F(ValidityTest, UnknownPolicyIsReported) {
  PolicyRef Mystery;
  Mystery.Name = Ctx.symbol("mystery");
  const Expr *Client =
      Ctx.request(9, Mystery, Ctx.send("Req", Ctx.empty()));
  plan::Plan Pi;
  Pi.bind(9, Ex.LBr);
  auto R = checkPlanValidity(Ctx, Client, Ex.LC1, Pi, Ex.Repo, Ex.Registry);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.Failure, PlanFailureKind::UnknownPolicy);
}

TEST_F(ValidityTest, HistoryDependenceAcrossSessions) {
  // A client that performs a violating event *before* opening a framed
  // session: ϕ is history-dependent, so the plan must be rejected even
  // though the event predates the frame.
  StringInterner &In = Ctx.interner();
  policy::PolicyRegistry Registry;
  Registry.add(policy::makeNeverAfterPolicy(In, "noWaR", "read", "write"));

  PolicyRef NoWaR;
  NoWaR.Name = Ctx.symbol("noWaR");

  // Service writes; client already read.
  const Expr *Writer =
      Ctx.receive("go", Ctx.seq(Ctx.event("write"), Ctx.empty()));
  plan::Repository Repo;
  plan::Loc LW = Ctx.symbol("w");
  Repo.add(LW, Writer);

  const Expr *Client = Ctx.seq(
      Ctx.event("read"),
      Ctx.request(1, NoWaR, Ctx.send("go", Ctx.empty())));
  plan::Plan Pi;
  Pi.bind(1, LW);
  auto R = checkPlanValidity(Ctx, Client, Ctx.symbol("c"), Pi, Repo,
                             Registry);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.Failure, PlanFailureKind::PolicyViolation);

  // Same service, but the client read nothing: fine.
  const Expr *CleanClient =
      Ctx.request(1, NoWaR, Ctx.send("go", Ctx.empty()));
  auto R2 = checkPlanValidity(Ctx, CleanClient, Ctx.symbol("c"), Pi, Repo,
                              Registry);
  EXPECT_TRUE(R2.Valid);
}

TEST_F(ValidityTest, FrameClosesRestorePermissiveness) {
  // Policy active only during the session; after close the client may
  // fire the "forbidden" event freely.
  StringInterner &In = Ctx.interner();
  policy::PolicyRegistry Registry;
  Registry.add(policy::makeNeverAfterPolicy(In, "noWaR", "read", "write"));
  PolicyRef NoWaR;
  NoWaR.Name = Ctx.symbol("noWaR");

  const Expr *Reader =
      Ctx.receive("go", Ctx.seq(Ctx.event("read"), Ctx.empty()));
  plan::Repository Repo;
  plan::Loc LR = Ctx.symbol("r");
  Repo.add(LR, Reader);

  // After the framed session (which reads), the client writes. The write
  // happens outside the frame: valid.
  const Expr *Client = Ctx.seq(
      Ctx.request(1, NoWaR, Ctx.send("go", Ctx.empty())),
      Ctx.event("write"));
  plan::Plan Pi;
  Pi.bind(1, LR);
  auto R = checkPlanValidity(Ctx, Client, Ctx.symbol("c"), Pi, Repo,
                             Registry);
  EXPECT_TRUE(R.Valid);
}

TEST_F(ValidityTest, ViolationInsideNestedSessionIsFound) {
  // The client's policy must also constrain events of the *nested*
  // session opened by its callee (the history is per component).
  auto R = checkPlanValidity(Ctx, Ex.C1, Ex.LC1,
                             [&] {
                               plan::Plan Pi;
                               Pi.bind(1, Ex.LBr);
                               Pi.bind(3, Ex.LS1);
                               return Pi;
                             }(),
                             Ex.Repo, Ex.Registry);
  EXPECT_FALSE(R.Valid);
}

TEST_F(ValidityTest, RegularizationDoesNotChangeVerdicts) {
  StaticValidityOptions NoReg;
  NoReg.Regularize = false;
  StaticValidityOptions WithReg;
  WithReg.Regularize = true;

  std::vector<std::pair<const Expr *, plan::Plan>> Cases = {
      {Ex.C1, Ex.pi1()},
      {Ex.C2, Ex.pi2Valid()},
      {Ex.C2, Ex.pi3()},
  };
  for (auto &[Client, Pi] : Cases) {
    auto A = checkPlanValidity(Ctx, Client, Ex.LC1, Pi, Ex.Repo,
                               Ex.Registry, NoReg);
    auto B = checkPlanValidity(Ctx, Client, Ex.LC1, Pi, Ex.Repo,
                               Ex.Registry, WithReg);
    EXPECT_EQ(A.Valid, B.Valid);
    EXPECT_EQ(A.Failure, B.Failure);
  }
}

//===----------------------------------------------------------------------===//
// Quantitative cost analysis (§5 future work)
//===----------------------------------------------------------------------===//

class CostTest : public ::testing::Test {
protected:
  HistContext Ctx;

  CostModel model(std::map<std::string, int64_t> Costs) {
    CostModel M;
    for (auto &[Name, C] : Costs)
      M.EventCost[Ctx.symbol(Name)] = C;
    return M;
  }
};

TEST_F(CostTest, SequenceCostsAdd) {
  const Expr *E = Ctx.seq({Ctx.event("io"), Ctx.event("cpu"),
                           Ctx.event("io")});
  auto R = maxEventCost(Ctx, E, model({{"io", 10}, {"cpu", 3}}));
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.MaxCost, 23);
}

TEST_F(CostTest, ChoiceTakesWorstBranch) {
  const Expr *E = Ctx.extChoice({
      {CommAction::input(Ctx.symbol("a")), Ctx.event("cheap")},
      {CommAction::input(Ctx.symbol("b")), Ctx.event("pricey")},
  });
  auto R = maxEventCost(Ctx, E, model({{"cheap", 1}, {"pricey", 100}}));
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.MaxCost, 100);
}

TEST_F(CostTest, FreeLoopIsBounded) {
  // Recursion whose body costs nothing accumulates nothing.
  const Expr *E = Ctx.mu("h", Ctx.send("ping", Ctx.var("h")));
  auto R = maxEventCost(Ctx, E, model({{"io", 5}}));
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.MaxCost, 0);
}

TEST_F(CostTest, CostlyLoopIsUnbounded) {
  const Expr *E = Ctx.mu(
      "h", Ctx.send("ping", Ctx.seq(Ctx.event("io"), Ctx.var("h"))));
  auto R = maxEventCost(Ctx, E, model({{"io", 5}}));
  EXPECT_FALSE(R.Bounded);
}

TEST_F(CostTest, LoopWithCostlyExitIsBounded) {
  // The loop itself is free; only the exit path costs.
  const Expr *E = Ctx.mu(
      "h", Ctx.extChoice({
               {CommAction::input(Ctx.symbol("again")), Ctx.var("h")},
               {CommAction::input(Ctx.symbol("stop")), Ctx.event("io")},
           }));
  auto R = maxEventCost(Ctx, E, model({{"io", 7}}));
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.MaxCost, 7);
}

TEST_F(CostTest, DefaultCostApplies) {
  CostModel M;
  M.DefaultCost = 2;
  const Expr *E = Ctx.seq(Ctx.event("x"), Ctx.event("y"));
  auto R = maxEventCost(Ctx, E, M);
  EXPECT_EQ(R.MaxCost, 4);
}

TEST_F(CostTest, HotelBookingSessionCost) {
  // The paper's S3 run costs sign + price + rating under a uniform model.
  HotelExample Ex2 = makeHotelExample(Ctx);
  CostModel M;
  M.DefaultCost = 1;
  auto R = maxEventCost(Ctx, Ex2.S3, M);
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.MaxCost, 3);
}

TEST_F(ValidityTest, StateSpaceCapIsReported) {
  StaticValidityOptions Tiny;
  Tiny.MaxStates = 2;
  auto R = checkPlanValidity(Ctx, Ex.C1, Ex.LC1, Ex.pi1(), Ex.Repo,
                             Ex.Registry, Tiny);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.Failure, PlanFailureKind::StateSpaceExceeded);
}

} // namespace
