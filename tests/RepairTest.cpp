//===- tests/RepairTest.cpp - incremental plan repair ---------------------===//
///
/// The RepairSession contract: cache eviction is precise (exactly the
/// entries a delta can make stale, counted), a repaired report is
/// element-wise what a from-scratch verification of the churned
/// repository produces, and a governor trip mid-repair surfaces as an
/// Outcome — the session stays coherent and is never wrong.
///
//===----------------------------------------------------------------------===//

#include "core/HotelExample.h"
#include "core/Repair.h"
#include "plan/RepositoryDelta.h"
#include "plan/RequestExtract.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

using namespace sus;
using namespace sus::core;
using namespace sus::hist;
using namespace sus::plan;

namespace {

class RepairTest : public ::testing::Test {
protected:
  RepairTest() : Ex(makeHotelExample(Ctx)) {}

  static size_t plansMentioning(const VerificationReport &Report,
                                const std::set<Loc> &Touched) {
    size_t N = 0;
    for (const PlanVerdict &V : Report.Verdicts)
      if (planMentions(V.Pi, Touched))
        ++N;
    return N;
  }

  /// Element-wise comparison against a canonical (plan-sorted) report.
  static void expectSameVerdicts(const VerificationReport &Repaired,
                                 VerificationReport Scratch) {
    std::sort(Scratch.Verdicts.begin(), Scratch.Verdicts.end(),
              [](const PlanVerdict &A, const PlanVerdict &B) {
                return A.Pi < B.Pi;
              });
    ASSERT_EQ(Repaired.Verdicts.size(), Scratch.Verdicts.size());
    for (size_t I = 0; I < Repaired.Verdicts.size(); ++I) {
      const PlanVerdict &R = Repaired.Verdicts[I];
      const PlanVerdict &S = Scratch.Verdicts[I];
      EXPECT_TRUE(R.Pi == S.Pi) << "verdict " << I << " plans differ";
      EXPECT_EQ(R.isValid(), S.isValid()) << "verdict " << I;
      EXPECT_EQ(R.compliancePassed(), S.compliancePassed()) << "verdict " << I;
      EXPECT_EQ(R.Security.Valid, S.Security.Valid) << "verdict " << I;
    }
  }

  HistContext Ctx;
  HotelExample Ex;
};

//===----------------------------------------------------------------------===//
// Eviction precision
//===----------------------------------------------------------------------===//

TEST_F(RepairTest, EvictionTouchesExactlyTheStaleEntries) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  VerificationReport Baseline = V.verifyClient(Ex.C1, Ex.LC1);
  ASSERT_FALSE(Baseline.Verdicts.empty());
  size_t MentionS3 = plansMentioning(Baseline, {Ex.LS3});
  ASSERT_GT(MentionS3, 0u);

  // The compliance verdicts keyed on S3 are the pairs the pruning filter
  // paid a product for; the screens refute some pairs before that, so
  // count what the cache actually holds rather than what was scanned.
  size_t StaleCompliance = 0;
  for (const VerifierCache::ComplianceEntry &E :
       V.cache()->exportEntries().Compliances)
    if (E.Service == Ex.S3)
      ++StaleCompliance;
  ASSERT_GE(StaleCompliance, 1u);
  ASSERT_TRUE(V.cache()->hasSummary(Ex.S3));

  // Re-version s3 with S4's behaviour: the old S3 expression is retired
  // (nobody else publishes it).
  RepositoryDelta Delta;
  Delta.Changes.push_back(applyPublish(Ex.Repo, Ex.LS3, Ex.S4));
  VerifierCache::EvictionStats Evicted = V.applyDelta(Delta);

  // Validity: exactly the cached verdicts whose plan binds s3.
  EXPECT_EQ(Evicted.ValidityEvicted, MentionS3);
  // Compliance: exactly the memoized verdicts against the retired expr.
  EXPECT_EQ(Evicted.ComplianceEvicted, StaleCompliance);
  // Projection and summary: S3's own; the request-body ones are
  // client-side and must survive.
  EXPECT_EQ(Evicted.ProjectionEvicted, 1u);
  EXPECT_EQ(Evicted.SummaryEvicted, 1u);
  EXPECT_FALSE(V.cache()->hasSummary(Ex.S3));
  for (const Expr *Behaviour : {Ex.C1, Ex.Br})
    for (const RequestSite &Site : extractRequests(Behaviour))
      EXPECT_TRUE(V.cache()->hasSummary(Site.body()))
          << "request " << Site.id();
}

TEST_F(RepairTest, AddingAServiceEvictsNothing) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  V.verifyClient(Ex.C1, Ex.LC1);

  RepositoryDelta Delta;
  Delta.Changes.push_back(
      applyPublish(Ex.Repo, Ctx.symbol("s9"), Ex.S1));
  VerifierCache::EvictionStats Evicted = V.applyDelta(Delta);
  EXPECT_EQ(Evicted.ValidityEvicted, 0u);
  EXPECT_EQ(Evicted.ComplianceEvicted, 0u);
  EXPECT_EQ(Evicted.ProjectionEvicted, 0u);
}

TEST_F(RepairTest, AliasedExpressionsAreNotRetiredEarly) {
  // Publish S1's hash-consed expression at a second location, verify so
  // the cache holds verdicts about it, then unpublish the alias: every
  // S1-keyed compliance/projection entry must survive, because s1 still
  // publishes the same expression. Only the plans binding the alias go.
  RepositoryDelta Publish;
  Loc Alias = Ctx.symbol("s9");
  Publish.Changes.push_back(applyPublish(Ex.Repo, Alias, Ex.S1));

  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  VerifierCache::EvictionStats PublishEvicted = V.applyDelta(Publish);
  EXPECT_EQ(PublishEvicted.ComplianceEvicted, 0u); // Cold cache: no-op.
  VerificationReport Report = V.verifyClient(Ex.C1, Ex.LC1);
  size_t MentionAlias = plansMentioning(Report, {Alias});
  ASSERT_GT(MentionAlias, 0u);

  RepositoryDelta Remove;
  Remove.Changes.push_back(applyRemove(Ex.Repo, Alias));
  VerifierCache::EvictionStats Evicted = V.applyDelta(Remove);
  EXPECT_EQ(Evicted.ValidityEvicted, MentionAlias);
  EXPECT_EQ(Evicted.ComplianceEvicted, 0u);
  EXPECT_EQ(Evicted.ProjectionEvicted, 0u);
}

//===----------------------------------------------------------------------===//
// Repair == from scratch
//===----------------------------------------------------------------------===//

TEST_F(RepairTest, RepairedReportMatchesFromScratchOverChurnSeeds) {
  struct Lcg {
    uint64_t S;
    uint64_t next() {
      S = S * 6364136223846793005ULL + 1442695040888963407ULL;
      return S >> 33;
    }
  };

  for (unsigned Seed = 0; Seed < 8; ++Seed) {
    HistContext LocalCtx;
    HotelExample Local = makeHotelExample(LocalCtx);
    std::map<Loc, const Expr *> Original;
    for (const auto &[L, S] : Local.Repo.services())
      Original[L] = S;
    std::vector<Loc> Locations;
    for (const auto &[L, S] : Local.Repo.services())
      Locations.push_back(L);

    VerifierOptions Opts;
    Opts.UseIndex = true;
    Verifier V(LocalCtx, Local.Repo, Local.Registry, Opts);
    RepairSession Session(V, Local.C1, Local.LC1);
    Session.verify();

    Lcg Rng{Seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE};
    for (unsigned Round = 0; Round < 4; ++Round) {
      // Toggle one location: unpublish it, or republish the original.
      Loc L = Locations[Rng.next() % Locations.size()];
      RepositoryDelta Delta;
      if (Local.Repo.find(L))
        Delta.Changes.push_back(applyRemove(Local.Repo, L));
      else
        Delta.Changes.push_back(applyPublish(Local.Repo, L, Original[L]));

      Outcome<RepairStats> Out = Session.applyDelta(Delta);
      ASSERT_TRUE(Out.ok()) << "seed " << Seed << " round " << Round;

      // Only the plans binding the touched location were re-checked.
      EXPECT_EQ(Out.value().PlansReverified,
                plansMentioning(Session.report(), Delta.touched()))
          << "seed " << Seed << " round " << Round;

      // A fresh verifier over the churned repository must agree verdict
      // for verdict.
      Verifier Fresh(LocalCtx, Local.Repo, Local.Registry);
      expectSameVerdicts(Session.report(),
                         Fresh.verifyClient(Local.C1, Local.LC1));
    }
  }
}

TEST_F(RepairTest, RepairDiscoversNewlyPublishedServices) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);
  RepairSession Session(V, Ex.C1, Ex.LC1);
  size_t Before = Session.verify().Verdicts.size();
  ASSERT_GT(Before, 0u);

  // A new hotel with S1's behaviour: request 3 gains one candidate.
  Loc Fresh = Ctx.symbol("s9");
  RepositoryDelta Delta;
  Delta.Changes.push_back(applyPublish(Ex.Repo, Fresh, Ex.S1));
  Outcome<RepairStats> Out = Session.applyDelta(Delta);
  ASSERT_TRUE(Out.ok());

  const VerificationReport &Report = Session.report();
  EXPECT_EQ(Out.value().PlansKept, Before);
  EXPECT_EQ(Out.value().PlansDropped, 0u);
  EXPECT_EQ(Report.Verdicts.size(),
            Before + Out.value().PlansReverified);
  EXPECT_GT(plansMentioning(Report, {Fresh}), 0u);

  Verifier Scratch(Ctx, Ex.Repo, Ex.Registry);
  expectSameVerdicts(Report, Scratch.verifyClient(Ex.C1, Ex.LC1));
}

//===----------------------------------------------------------------------===//
// Governed repair: Inconclusive, never wrong
//===----------------------------------------------------------------------===//

TEST_F(RepairTest, TrippedGovernorMakesRepairInconclusiveNotWrong) {
  VerifierOptions Opts;
  Opts.Governor = std::make_shared<ResourceGovernor>();
  Verifier V(Ctx, Ex.Repo, Ex.Registry, Opts);
  RepairSession Session(V, Ex.C1, Ex.LC1);
  const VerificationReport &Baseline = Session.verify();
  ASSERT_FALSE(Baseline.anyInconclusive());
  size_t Untouched =
      Baseline.Verdicts.size() - plansMentioning(Baseline, {Ex.LS3});

  // Trip the budget, then churn s3: the kept verdicts must survive, the
  // affected ones must be reported as unknown — not silently dropped as
  // "invalid".
  Opts.Governor->requestCancel();
  RepositoryDelta Delta;
  Delta.Changes.push_back(applyPublish(Ex.Repo, Ex.LS3, Ex.S4));
  Outcome<RepairStats> Out = Session.applyDelta(Delta);
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.exhausted().Which, ResourceKind::Cancelled);

  const VerificationReport &Report = Session.report();
  EXPECT_TRUE(Report.EnumerationExhausted.has_value());
  EXPECT_TRUE(Report.anyInconclusive());
  EXPECT_EQ(Report.Verdicts.size(), Untouched);
  for (const PlanVerdict &Verdict : Report.Verdicts)
    EXPECT_FALSE(planMentions(Verdict.Pi, {Ex.LS3}))
        << "a verdict about the churned location survived a cut-short "
           "repair";
}

} // namespace
