//===- tests/CoreTest.cpp - end-to-end verifier tests ---------------------===//

#include "core/HotelExample.h"
#include "core/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace sus;
using namespace sus::core;
using namespace sus::hist;

namespace {

class CoreTest : public ::testing::Test {
protected:
  CoreTest() : Ex(makeHotelExample(Ctx)) {}
  HistContext Ctx;
  HotelExample Ex;
};

TEST_F(CoreTest, C1HasExactlyThePaperValidPlan) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  VerificationReport Report = V.verifyClient(Ex.C1, Ex.LC1);
  std::vector<plan::Plan> Valid = Report.validPlans();
  ASSERT_EQ(Valid.size(), 1u);
  EXPECT_EQ(Valid[0], Ex.pi1());
}

TEST_F(CoreTest, C2HasExactlyOneValidPlan) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  VerificationReport Report = V.verifyClient(Ex.C2, Ex.LC2);
  std::vector<plan::Plan> Valid = Report.validPlans();
  ASSERT_EQ(Valid.size(), 1u);
  EXPECT_EQ(Valid[0], Ex.pi2Valid());
}

TEST_F(CoreTest, PruningDoesNotChangeValidPlanSet) {
  VerifierOptions Pruned;
  Pruned.PruneWithCompliance = true;
  VerifierOptions Exhaustive;
  Exhaustive.PruneWithCompliance = false;

  Verifier VP(Ctx, Ex.Repo, Ex.Registry, Pruned);
  Verifier VE(Ctx, Ex.Repo, Ex.Registry, Exhaustive);

  for (const Expr *Client : {Ex.C1, Ex.C2}) {
    auto P = VP.verifyClient(Client, Ex.LC1).validPlans();
    auto E = VE.verifyClient(Client, Ex.LC1).validPlans();
    EXPECT_EQ(P, E);
  }
}

TEST_F(CoreTest, PruningReducesCandidates) {
  VerifierOptions Pruned;
  Pruned.PruneWithCompliance = true;
  VerifierOptions Exhaustive;
  Exhaustive.PruneWithCompliance = false;

  Verifier VP(Ctx, Ex.Repo, Ex.Registry, Pruned);
  Verifier VE(Ctx, Ex.Repo, Ex.Registry, Exhaustive);
  auto P = VP.verifyClient(Ex.C1, Ex.LC1);
  auto E = VE.verifyClient(Ex.C1, Ex.LC1);
  EXPECT_LT(P.CandidateCount, E.CandidateCount);
  // Exhaustive: 9 candidate plans (4 direct hotels + 5 for request 3).
  EXPECT_EQ(E.CandidateCount, 9u);
  // Pruned: request 1 only fits the broker; request 3 fits S1, S3, S4
  // (S2 fails the Del pre-check, the broker does not speak IdC).
  EXPECT_EQ(P.CandidateCount, 3u);
}

TEST_F(CoreTest, CheckPlanReportsPerRequestCompliance) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  PlanVerdict Verdict = V.checkPlan(Ex.C2, Ex.LC2, Ex.pi2());
  EXPECT_FALSE(Verdict.isValid());
  EXPECT_FALSE(Verdict.compliancePassed());
  // Request 2 (to the broker) complies; request 3 (to S2) does not.
  bool Saw2 = false, Saw3 = false;
  for (const RequestCheck &C : Verdict.RequestChecks) {
    if (C.Request == 2) {
      Saw2 = true;
      EXPECT_TRUE(C.Compliant);
    }
    if (C.Request == 3) {
      Saw3 = true;
      EXPECT_FALSE(C.Compliant);
      ASSERT_TRUE(C.Witness.has_value());
      EXPECT_NE(C.Witness->str(Ctx).find("Del"), std::string::npos);
    }
  }
  EXPECT_TRUE(Saw2);
  EXPECT_TRUE(Saw3);
}

TEST_F(CoreTest, CheckPlanSeparatesComplianceFromSecurity) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  // π3 = {2->br, 3->s3}: compliant but violates ϕ2 (s3 black-listed).
  PlanVerdict Verdict = V.checkPlan(Ex.C2, Ex.LC2, Ex.pi3());
  EXPECT_TRUE(Verdict.compliancePassed());
  EXPECT_FALSE(Verdict.Security.Valid);
  EXPECT_FALSE(Verdict.isValid());
}

TEST_F(CoreTest, ValidPlanVerdictIsFullyGreen) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  PlanVerdict Verdict = V.checkPlan(Ex.C1, Ex.LC1, Ex.pi1());
  EXPECT_TRUE(Verdict.isValid());
  EXPECT_TRUE(Verdict.compliancePassed());
  EXPECT_TRUE(Verdict.Security.Valid);
  for (const RequestCheck &C : Verdict.RequestChecks)
    EXPECT_TRUE(C.Compliant);
}

TEST_F(CoreTest, BindingComplianceIsMemoized) {
  // The search's binding filter is the memoized product: the second call
  // on the same pair is a cache hit.
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  auto Sites = plan::extractRequests(Ex.C1);
  ASSERT_EQ(Sites.size(), 1u);
  plan::EnumeratorOptions EOpts = V.enumeratorOptions();
  ASSERT_TRUE(EOpts.Filter);
  bool First = EOpts.Filter(Sites[0], Ex.LBr, Ex.Br);
  bool Second = EOpts.Filter(Sites[0], Ex.LBr, Ex.Br);
  EXPECT_EQ(First, Second);
  EXPECT_TRUE(First);
  EXPECT_EQ(V.stats().ComplianceLookups, 2u);
  EXPECT_EQ(V.stats().complianceComputes(), 1u);
}

TEST_F(CoreTest, ReportPrinterMentionsVerdicts) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  VerificationReport Report = V.verifyClient(Ex.C1, Ex.LC1);
  std::ostringstream OS;
  printReport(Report, Ctx, OS);
  std::string S = OS.str();
  EXPECT_NE(S.find("VALID"), std::string::npos);
  EXPECT_NE(S.find("valid plans: 1"), std::string::npos);
  EXPECT_NE(S.find("{1 -> br, 3 -> s3}"), std::string::npos);
}

TEST_F(CoreTest, MaxPlansTruncationIsReported) {
  VerifierOptions Opts;
  Opts.MaxPlans = 1;
  Opts.PruneWithCompliance = false;
  Verifier V(Ctx, Ex.Repo, Ex.Registry, Opts);
  auto Report = V.verifyClient(Ex.C1, Ex.LC1);
  EXPECT_TRUE(Report.Truncated);
  EXPECT_EQ(Report.CandidateCount, 1u);
}

TEST_F(CoreTest, StuckConfigurationIsFlaggedButSecurityHolds) {
  // A client speaking a protocol no service understands: the composed
  // space has a stuck configuration (progress failure), yet no policy is
  // violated — security validity holds. This is exactly why the §4
  // compliance check exists alongside the §3.1 one.
  const Expr *Odd = Ctx.request(
      50, PolicyRef(), Ctx.send("Zorp", Ctx.receive("Blip", Ctx.empty())));
  plan::Plan Pi;
  Pi.bind(50, Ex.LS3);
  auto R = validity::checkPlanValidity(Ctx, Odd, Ex.LC1, Pi, Ex.Repo,
                                       Ex.Registry);
  EXPECT_TRUE(R.Valid);
  EXPECT_TRUE(R.HasStuckConfiguration);
  // And the verifier as a whole still rejects the plan via compliance.
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  EXPECT_FALSE(V.checkPlan(Odd, Ex.LC1, Pi).isValid());
}

TEST_F(CoreTest, NetworkVerificationIsCompositional) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  NetworkReport Network =
      V.verifyNetwork({{Ex.C1, Ex.LC1}, {Ex.C2, Ex.LC2}});
  ASSERT_EQ(Network.PerClient.size(), 2u);
  EXPECT_TRUE(Network.allClientsHaveValidPlans());
  // Per-client results match individual verification.
  EXPECT_EQ(Network.PerClient[0].second.validPlans(),
            V.verifyClient(Ex.C1, Ex.LC1).validPlans());
}

TEST_F(CoreTest, NetworkReportDetectsHopelessClient) {
  // A client nobody can serve (unknown channel protocol).
  const Expr *Odd = Ctx.request(
      77, PolicyRef(), Ctx.send("Zorp", Ctx.receive("Blip", Ctx.empty())));
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  NetworkReport Network = V.verifyNetwork({{Ex.C1, Ex.LC1}, {Odd, Ex.LC2}});
  EXPECT_FALSE(Network.allClientsHaveValidPlans());
}

TEST_F(CoreTest, HotelExamplePlansAreWellFormedExpressions) {
  // Sanity on the shared fixture itself.
  for (const Expr *E : {Ex.C1, Ex.C2, Ex.Br, Ex.S1, Ex.S2, Ex.S3, Ex.S4})
    EXPECT_TRUE(Ctx.isClosed(E));
}

} // namespace
