//===- tests/GovernorTest.cpp - Resource governance tests -----------------===//
///
/// \file
/// Covers the ResourceGovernor itself (deadline stickiness, the per-call
/// product-state budget, cooperative cancellation) and its contract with
/// every governed layer: exhaustion comes back as a typed
/// ResourceExhausted in the layer's result — never an exception, never a
/// half-built result — and no cache ever memoizes a partial verdict.
///
//===----------------------------------------------------------------------===//

#include "contract/Compliance.h"
#include "core/HotelExample.h"
#include "core/Verifier.h"
#include "plan/PlanEnumerator.h"
#include "plan/RequestExtract.h"
#include "support/ResourceGovernor.h"
#include "validity/StaticValidity.h"

#include <gtest/gtest.h>

using namespace sus;

namespace {

//===----------------------------------------------------------------------===//
// The governor itself
//===----------------------------------------------------------------------===//

TEST(ResourceGovernorTest, UnarmedGovernorNeverTrips) {
  ResourceGovernor G;
  for (int I = 0; I < 100; ++I)
    EXPECT_FALSE(G.poll().has_value());
  EXPECT_FALSE(G.charge(ResourceKind::ProductStates, 1u << 20).has_value());
}

TEST(ResourceGovernorTest, ZeroDeadlineTripsTheFirstPollAndSticks) {
  ResourceGovernor G;
  G.setDeadlineAfterMillis(0);
  std::optional<ResourceExhausted> E = G.poll();
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Which, ResourceKind::Deadline);
  EXPECT_TRUE(E->deadlineLike());
  // Sticky: every later poll trips regardless of the tick stride.
  for (int I = 0; I < 64; ++I) {
    std::optional<ResourceExhausted> Again = G.poll();
    ASSERT_TRUE(Again.has_value());
    EXPECT_EQ(Again->Which, ResourceKind::Deadline);
  }
}

TEST(ResourceGovernorTest, BudgetAllowsExactlyTheLimit) {
  ResourceGovernor G;
  G.setLimit(ResourceKind::ProductStates, 1);
  EXPECT_FALSE(G.charge(ResourceKind::ProductStates, 1).has_value());
  std::optional<ResourceExhausted> E =
      G.charge(ResourceKind::ProductStates, 2);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Which, ResourceKind::ProductStates);
  EXPECT_EQ(E->Spent, 2u);
  EXPECT_EQ(E->Limit, 1u);
  EXPECT_FALSE(E->deadlineLike());
  // Budget trips are per call, not sticky: polls stay clean and a later
  // charge within the budget passes.
  EXPECT_FALSE(G.poll().has_value());
  EXPECT_FALSE(G.charge(ResourceKind::ProductStates, 1).has_value());
}

TEST(ResourceGovernorTest, CancellationTripsEveryPoll) {
  ResourceGovernor G;
  EXPECT_FALSE(G.cancelRequested());
  G.requestCancel();
  EXPECT_TRUE(G.cancelRequested());
  std::optional<ResourceExhausted> E = G.poll();
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Which, ResourceKind::Cancelled);
  EXPECT_TRUE(E->deadlineLike());
  for (int I = 0; I < 64; ++I) {
    std::optional<ResourceExhausted> Again = G.poll();
    ASSERT_TRUE(Again.has_value());
    EXPECT_EQ(Again->Which, ResourceKind::Cancelled);
  }
}

//===----------------------------------------------------------------------===//
// Pipeline layers
//===----------------------------------------------------------------------===//

TEST(GovernorPipelineTest, ComplianceProductHonoursTheBudget) {
  hist::HistContext Ctx;
  core::HotelExample Ex = core::makeHotelExample(Ctx);
  std::vector<plan::RequestSite> Sites = plan::extractRequests(Ex.C1);
  ASSERT_FALSE(Sites.empty());
  const hist::Expr *Body = Sites.front().body();
  const hist::Expr *Service = Ex.Repo.find(Ex.LBr);
  ASSERT_NE(Service, nullptr);

  ResourceGovernor G;
  G.setLimit(ResourceKind::ProductStates, 1);
  contract::ComplianceResult Partial =
      contract::checkServiceCompliance(Ctx, Body, Service, &G);
  ASSERT_TRUE(Partial.Exhausted.has_value());
  EXPECT_EQ(Partial.Exhausted->Which, ResourceKind::ProductStates);
  EXPECT_FALSE(Partial.Compliant);

  // The same pair ungoverned: a conclusive verdict, no exhaustion.
  contract::ComplianceResult Full =
      contract::checkServiceCompliance(Ctx, Body, Service);
  EXPECT_FALSE(Full.Exhausted.has_value());
  EXPECT_TRUE(Full.Compliant);
}

TEST(GovernorPipelineTest, PlanValidityHonoursBudgetAndDeadline) {
  hist::HistContext Ctx;
  core::HotelExample Ex = core::makeHotelExample(Ctx);

  validity::StaticValidityOptions Budgeted;
  ResourceGovernor GB;
  GB.setLimit(ResourceKind::ProductStates, 1);
  Budgeted.Governor = &GB;
  validity::StaticValidityResult R = validity::checkPlanValidity(
      Ctx, Ex.C1, Ex.LC1, Ex.pi1(), Ex.Repo, Ex.Registry, Budgeted);
  EXPECT_FALSE(R.Valid);
  ASSERT_EQ(R.Failure, validity::PlanFailureKind::ResourceExhausted);
  ASSERT_TRUE(R.Exhausted.has_value());
  EXPECT_EQ(R.Exhausted->Which, ResourceKind::ProductStates);

  validity::StaticValidityOptions Expired;
  ResourceGovernor GD;
  GD.setDeadlineAfterMillis(0);
  Expired.Governor = &GD;
  validity::StaticValidityResult D = validity::checkPlanValidity(
      Ctx, Ex.C1, Ex.LC1, Ex.pi1(), Ex.Repo, Ex.Registry, Expired);
  ASSERT_EQ(D.Failure, validity::PlanFailureKind::ResourceExhausted);
  ASSERT_TRUE(D.Exhausted.has_value());
  EXPECT_EQ(D.Exhausted->Which, ResourceKind::Deadline);

  // Ungoverned, the plan is the paper's valid π1.
  validity::StaticValidityResult Ok = validity::checkPlanValidity(
      Ctx, Ex.C1, Ex.LC1, Ex.pi1(), Ex.Repo, Ex.Registry,
      validity::StaticValidityOptions());
  EXPECT_TRUE(Ok.Valid);
  EXPECT_FALSE(Ok.Exhausted.has_value());
}

TEST(GovernorPipelineTest, EnumeratorReportsAnExpiredDeadline) {
  hist::HistContext Ctx;
  core::HotelExample Ex = core::makeHotelExample(Ctx);
  plan::EnumeratorOptions EOpts;
  ResourceGovernor G;
  G.setDeadlineAfterMillis(0);
  EOpts.Governor = &G;
  plan::EnumerationResult R = plan::enumeratePlans(Ex.C1, Ex.Repo, EOpts);
  ASSERT_TRUE(R.Exhausted.has_value());
  EXPECT_EQ(R.Exhausted->Which, ResourceKind::Deadline);
  EXPECT_TRUE(R.Plans.empty());
}

//===----------------------------------------------------------------------===//
// Cache hygiene
//===----------------------------------------------------------------------===//

TEST(GovernorCacheTest, ExhaustedComplianceIsNotMemoized) {
  hist::HistContext Ctx;
  core::HotelExample Ex = core::makeHotelExample(Ctx);
  std::vector<plan::RequestSite> Sites = plan::extractRequests(Ex.C1);
  ASSERT_FALSE(Sites.empty());
  const hist::Expr *Body = Sites.front().body();
  const hist::Expr *Service = Ex.Repo.find(Ex.LBr);

  core::VerifierCache Cache;
  ResourceGovernor G;
  G.setLimit(ResourceKind::ProductStates, 1);
  contract::ComplianceResult Partial =
      Cache.compliance(Ctx, Body, Service, &G);
  ASSERT_TRUE(Partial.Exhausted.has_value());

  // The follow-up unbounded lookup is a miss (nothing was memoized) and
  // computes the real verdict.
  contract::ComplianceResult Full = Cache.compliance(Ctx, Body, Service);
  EXPECT_FALSE(Full.Exhausted.has_value());
  EXPECT_TRUE(Full.Compliant);
  core::VerifierStats S = Cache.stats();
  EXPECT_EQ(S.ComplianceLookups, 2u);
  EXPECT_EQ(S.ComplianceHits, 0u);

  // The conclusive verdict *is* memoized: a third lookup hits.
  (void)Cache.compliance(Ctx, Body, Service);
  EXPECT_EQ(Cache.stats().ComplianceHits, 1u);
}

#ifndef SUS_AUDIT
TEST(GovernorCacheTest, CacheRefusesExhaustedValidityResults) {
  // Under -DSUS_AUDIT=ON the same call asserts instead of silently
  // refusing; this test covers the release-mode contract.
  core::VerifierCache Cache;
  validity::StaticValidityResult R;
  R.Valid = false;
  R.Failure = validity::PlanFailureKind::ResourceExhausted;
  R.Exhausted = ResourceExhausted{ResourceKind::Deadline, 5, 1};
  plan::Plan Pi;
  Cache.recordValidity(nullptr, plan::Loc(), Pi, 100, R);
  EXPECT_FALSE(
      Cache.findValidity(nullptr, plan::Loc(), Pi, 100).has_value());
}
#endif

TEST(GovernorCacheTest, TrippedRunDoesNotPolluteASharedCache) {
  hist::HistContext Ctx;
  core::HotelExample Ex = core::makeHotelExample(Ctx);

  // Reference: a fresh ungoverned verification.
  core::Verifier Reference(Ctx, Ex.Repo, Ex.Registry);
  core::VerificationReport Want = Reference.verifyClient(Ex.C1, Ex.LC1);
  EXPECT_FALSE(Want.anyInconclusive());
  ASSERT_FALSE(Want.validPlans().empty());

  // A budget-tripped run: every verdict inconclusive, none valid.
  core::VerifierOptions Tripped;
  Tripped.Governor = std::make_shared<ResourceGovernor>();
  Tripped.Governor->setLimit(ResourceKind::ProductStates, 1);
  core::Verifier Governed(Ctx, Ex.Repo, Ex.Registry, Tripped);
  core::VerificationReport Partial = Governed.verifyClient(Ex.C1, Ex.LC1);
  EXPECT_TRUE(Partial.anyInconclusive());
  for (const core::PlanVerdict &V : Partial.Verdicts) {
    EXPECT_FALSE(V.isValid());
    EXPECT_TRUE(V.inconclusive());
    EXPECT_TRUE(V.exhaustedReason().has_value());
  }

  // An unbounded follow-up *through the same cache* in the same process:
  // the real verdicts, element-wise equal to the fresh reference.
  core::Verifier Clean(Ctx, Ex.Repo, Ex.Registry, core::VerifierOptions(),
                       Governed.cache());
  core::VerificationReport Got = Clean.verifyClient(Ex.C1, Ex.LC1);
  EXPECT_FALSE(Got.anyInconclusive());
  ASSERT_EQ(Got.Verdicts.size(), Want.Verdicts.size());
  for (size_t I = 0; I < Got.Verdicts.size(); ++I) {
    EXPECT_EQ(Got.Verdicts[I].Pi, Want.Verdicts[I].Pi) << "plan " << I;
    EXPECT_EQ(Got.Verdicts[I].isValid(), Want.Verdicts[I].isValid())
        << "plan " << I;
  }
  EXPECT_EQ(Got.validPlans().size(), Want.validPlans().size());
}

} // namespace
