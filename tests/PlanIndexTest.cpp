//===- tests/PlanIndexTest.cpp - indexed candidate selection --------------===//
///
/// The ServiceIndex contract: candidates() returns a sorted superset of
/// the compliant locations, the pre-screens never reject a pair the full
/// Def. 4 check accepts, an indexed enumeration (under a compliance
/// filter) emits bit-for-bit the plan set a repository scan emits, the
/// Verifier's screened scan reports bit-for-bit what an unscreened scan
/// reports, and an incrementally patched index answers like a freshly
/// rebuilt one.
///
//===----------------------------------------------------------------------===//

#include "contract/Compliance.h"
#include "contract/Prescreen.h"
#include "core/HotelExample.h"
#include "core/Verifier.h"
#include "plan/PlanEnumerator.h"
#include "plan/RepositoryDelta.h"
#include "plan/RequestExtract.h"
#include "plan/ServiceIndex.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace sus;
using namespace sus::hist;
using namespace sus::plan;
using core::HotelExample;
using core::makeHotelExample;

namespace {

//===----------------------------------------------------------------------===//
// Deterministic random workloads
//===----------------------------------------------------------------------===//

/// Splitmix-style LCG: deterministic across platforms, unlike std::rand.
struct Lcg {
  uint64_t S;
  uint64_t next() {
    S = S * 6364136223846793005ULL + 1442695040888963407ULL;
    return S >> 33;
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

const char *channelName(uint64_t I) {
  static const char *Pool[] = {"a", "b", "c", "d", "e", "f"};
  return Pool[I % 6];
}

/// A random published service: echo, two-round, external choice, or a
/// broker that opens its own (transitively chased) request.
const Expr *randomService(HistContext &Ctx, Lcg &Rng, unsigned BrokerId) {
  std::string C1 = channelName(Rng.below(6));
  std::string C2 = channelName(Rng.below(6));
  switch (Rng.below(4)) {
  case 0: // Echo.
    return Ctx.receive(C1, Ctx.send(C2, Ctx.empty()));
  case 1: // Two rounds.
    return Ctx.receive(
        C1, Ctx.send(C2, Ctx.receive(channelName(Rng.below(6)),
                                     Ctx.send(channelName(Rng.below(6)),
                                              Ctx.empty()))));
  case 2: { // External choice over two distinct inputs.
    std::string D1 = channelName(Rng.below(3));
    std::string D2 = channelName(3 + Rng.below(3));
    return Ctx.extChoice(
        {{CommAction::input(Ctx.symbol(D1)), Ctx.send(C2, Ctx.empty())},
         {CommAction::input(Ctx.symbol(D2)), Ctx.send(C1, Ctx.empty())}});
  }
  default: // Broker: answers C1 after delegating through its own request.
    return Ctx.receive(
        C1, Ctx.seq(Ctx.request(BrokerId, PolicyRef(),
                                Ctx.send(C2, Ctx.receive(
                                                 channelName(Rng.below(6)),
                                                 Ctx.empty()))),
                    Ctx.send(C2, Ctx.empty())));
  }
}

Repository randomRepository(HistContext &Ctx, Lcg &Rng,
                            unsigned NumServices) {
  Repository Repo;
  for (unsigned I = 0; I < NumServices; ++I)
    Repo.add(Ctx.symbol("svc" + std::to_string(I)),
             randomService(Ctx, Rng, /*BrokerId=*/500 + I));
  return Repo;
}

/// A random request body (the client side of one of the service shapes).
const Expr *randomBody(HistContext &Ctx, Lcg &Rng) {
  std::string C1 = channelName(Rng.below(6));
  std::string C2 = channelName(Rng.below(6));
  if (Rng.below(3) == 0)
    return Ctx.send(C1, Ctx.empty());
  return Ctx.send(C1, Ctx.receive(C2, Ctx.empty()));
}

const Expr *randomClient(HistContext &Ctx, Lcg &Rng, unsigned NumRequests) {
  std::vector<const Expr *> Parts;
  for (unsigned I = 0; I < NumRequests; ++I)
    Parts.push_back(
        Ctx.request(100 + I, PolicyRef(), randomBody(Ctx, Rng)));
  return Ctx.seq(Parts);
}

/// The §4 compliance pruning filter the verifier installs, memoized per
/// (body, service) like VerifierCache does.
struct ComplianceFilter {
  HistContext &Ctx;
  std::map<std::pair<const Expr *, const Expr *>, bool> Memo;

  bool operator()(const RequestSite &Site, Loc, const Expr *Service) {
    auto Key = std::make_pair(Site.body(), Service);
    auto It = Memo.find(Key);
    if (It != Memo.end())
      return It->second;
    bool Ok =
        contract::checkServiceCompliance(Ctx, Site.body(), Service).Compliant;
    return Memo.emplace(Key, Ok).first->second;
  }
};

//===----------------------------------------------------------------------===//
// Candidate lists
//===----------------------------------------------------------------------===//

class ServiceIndexTest : public ::testing::Test {
protected:
  ServiceIndexTest() : Ex(makeHotelExample(Ctx)) {}
  HistContext Ctx;
  HotelExample Ex;
};

TEST_F(ServiceIndexTest, CandidatesAreASortedSupersetOfTheCompliant) {
  ServiceIndex Index(Ctx, Ex.Repo);
  for (const RequestSite &Site : extractRequests(Ex.C1)) {
    std::vector<Loc> Cands = Index.candidates(Site.body());
    EXPECT_TRUE(std::is_sorted(Cands.begin(), Cands.end()));
    for (const auto &[L, Service] : Ex.Repo.services()) {
      if (!contract::checkServiceCompliance(Ctx, Site.body(), Service)
               .Compliant)
        continue;
      EXPECT_NE(std::find(Cands.begin(), Cands.end(), L), Cands.end())
          << "compliant service dropped for request " << Site.id();
    }
  }
}

TEST_F(ServiceIndexTest, LookupsAreMemoizedAndRejectsAreCounted) {
  ServiceIndex Index(Ctx, Ex.Repo);
  const RequestSite Site = extractRequests(Ex.C1)[0];
  std::vector<Loc> First = Index.candidates(Site.body());
  std::vector<Loc> Second = Index.candidates(Site.body());
  EXPECT_EQ(First, Second);

  IndexStats Stats = Index.stats();
  EXPECT_EQ(Stats.Lookups, 2u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.misses(), 1u);
  // Request 1 wants Req! — the four hotels (IdC? ...) never even reach
  // the screens: their buckets don't match, so the candidate list shrinks
  // below the repository without a single product build.
  EXPECT_LT(First.size(), Ex.Repo.size());
}

TEST_F(ServiceIndexTest, FirstStepScreenCutsBucketSurvivors) {
  // A service internally choosing between Ack! and Zzz! registers under
  // bucket[Ack?] (one initial ready set offers Ack!), but Def. 4
  // clause (1) fails on the {Zzz!} set against a client that only awaits
  // Ack — the first-step screen must cut it after the bucket stage, and
  // count the cut.
  Repository Repo;
  Loc LGood = Ctx.symbol("good");
  Loc LFlaky = Ctx.symbol("flaky");
  Repo.add(LGood, Ctx.send("Ack", Ctx.empty()));
  Repo.add(LFlaky,
           Ctx.intChoice(
               {{CommAction::output(Ctx.symbol("Ack")), Ctx.empty()},
                {CommAction::output(Ctx.symbol("Zzz")), Ctx.empty()}}));

  ServiceIndex Index(Ctx, Repo);
  const Expr *Body = Ctx.receive("Ack", Ctx.empty());
  std::vector<Loc> Cands = Index.candidates(Body);
  EXPECT_EQ(Cands, std::vector<Loc>{LGood});
  EXPECT_EQ(Index.stats().FirstStepRejects, 1u);

  // Soundness cross-check: the full product agrees with the screen.
  EXPECT_FALSE(contract::checkServiceCompliance(Ctx, Body,
                                                Repo.find(LFlaky))
                   .Compliant);
  EXPECT_TRUE(contract::checkServiceCompliance(Ctx, Body,
                                               Repo.find(LGood))
                  .Compliant);
}

TEST_F(ServiceIndexTest, PrescreenSoundnessOnRandomPairs) {
  // Necessary conditions only: a pre-screen Reject must imply the full
  // Def. 4 check rejects too, over a few hundred random pairs.
  Lcg Rng{0x5eedULL};
  for (unsigned Round = 0; Round < 40; ++Round) {
    const Expr *Body = randomBody(Ctx, Rng);
    const Expr *Service = randomService(Ctx, Rng, 900 + Round);
    contract::ContractSummary BodySummary =
        contract::summarizeContract(Ctx, Body);
    contract::ContractSummary ServiceSummary =
        contract::summarizeContract(Ctx, Service);
    bool Compliant =
        contract::checkServiceCompliance(Ctx, Body, Service).Compliant;
    contract::PrescreenVerdict Verdict =
        contract::prescreenCompliance(BodySummary, ServiceSummary);
    if (Verdict != contract::PrescreenVerdict::Pass) {
      EXPECT_FALSE(Compliant)
          << "prescreen rejected a compliant pair (round " << Round << ")";
    }
    if (Compliant) {
      EXPECT_EQ(Verdict, contract::PrescreenVerdict::Pass);
    }
  }
}

TEST_F(ServiceIndexTest, HotelPairsSurviveTheScreens) {
  // The paper's own bindings must pass: request 1 against the broker,
  // request 3 against each hotel.
  auto Sites = extractRequests(Ex.C1);
  ASSERT_EQ(Sites.size(), 1u);
  auto BrokerSites = extractRequests(Ex.Br);
  ASSERT_EQ(BrokerSites.size(), 1u);

  auto Screen = [&](const Expr *Body, const Expr *Service) {
    return contract::prescreenCompliance(
        contract::summarizeContract(Ctx, Body),
        contract::summarizeContract(Ctx, Service));
  };
  EXPECT_EQ(Screen(Sites[0].body(), Ex.Br),
            contract::PrescreenVerdict::Pass);
  for (const Expr *Hotel : {Ex.S1, Ex.S2, Ex.S3, Ex.S4})
    EXPECT_EQ(Screen(BrokerSites[0].body(), Hotel),
              contract::PrescreenVerdict::Pass);
}

//===----------------------------------------------------------------------===//
// Differential: indexed == scan
//===----------------------------------------------------------------------===//

TEST(PlanIndexDifferential, IndexedEnumerationMatchesScanOver100Seeds) {
  for (unsigned Seed = 0; Seed < 100; ++Seed) {
    HistContext Ctx;
    Lcg Rng{Seed * 0x9E3779B97F4A7C15ULL + 1};
    Repository Repo = randomRepository(Ctx, Rng, 8 + Seed % 5);
    const Expr *Client = randomClient(Ctx, Rng, 1 + Seed % 3);

    ComplianceFilter Filter{Ctx, {}};
    EnumeratorOptions Scan;
    Scan.Filter = std::ref(Filter);
    EnumerationResult ScanResult = enumeratePlans(Client, Repo, Scan);

    ServiceIndex Index(Ctx, Repo);
    EnumeratorOptions Indexed = Scan;
    Indexed.Index = &Index;
    EnumerationResult IndexResult = enumeratePlans(Client, Repo, Indexed);

    // Bit-for-bit identical plan sets, never more search effort.
    EXPECT_EQ(ScanResult.Plans, IndexResult.Plans) << "seed " << Seed;
    EXPECT_EQ(ScanResult.Truncated, IndexResult.Truncated) << "seed " << Seed;
    EXPECT_LE(IndexResult.BindingsTried, ScanResult.BindingsTried)
        << "seed " << Seed;

    // Walking every service against the index tries the same candidates
    // and counts exactly what the scan counts.
    EnumeratorOptions Walked = Indexed;
    Walked.VisitEveryService = true;
    EnumerationResult WalkResult = enumeratePlans(Client, Repo, Walked);
    EXPECT_EQ(ScanResult.Plans, WalkResult.Plans) << "seed " << Seed;
    EXPECT_EQ(ScanResult.BindingsTried, WalkResult.BindingsTried)
        << "seed " << Seed;
  }
}

TEST(PlanIndexDifferential, ScreenedScanMatchesUnscreenedScanOver100Seeds) {
  size_t ScreenedOut = 0;
  for (unsigned Seed = 0; Seed < 100; ++Seed) {
    HistContext Ctx;
    Lcg Rng{Seed * 0xBF58476D1CE4E5B9ULL + 3};
    Repository Repo = randomRepository(Ctx, Rng, 8 + Seed % 5);
    const Expr *Client = randomClient(Ctx, Rng, 1 + Seed % 3);
    Loc ClientLoc = Ctx.symbol("client");
    policy::PolicyRegistry Registry;

    // Production: the Verifier's scan, screened through its index.
    core::Verifier Screened(Ctx, Repo, Registry);
    core::VerificationReport Report = Screened.verifyClient(Client, ClientLoc);

    // Oracle: the same scan through the unscreened product filter, its
    // plans checked by a second verifier with a cache of its own.
    ComplianceFilter Filter{Ctx, {}};
    EnumeratorOptions Scan;
    Scan.MaxPlans = core::VerifierOptions().MaxPlans;
    Scan.Filter = std::ref(Filter);
    EnumerationResult Unscreened = enumeratePlans(Client, Repo, Scan);
    core::Verifier Checker(Ctx, Repo, Registry);
    core::VerificationReport Oracle;
    Oracle.CandidateCount = Unscreened.Plans.size();
    Oracle.BindingsTried = Unscreened.BindingsTried;
    Oracle.Truncated = Unscreened.Truncated;
    Oracle.Verdicts = Checker.checkPlans(Client, ClientLoc, Unscreened.Plans);

    std::vector<Plan> ScreenedPlans;
    for (const core::PlanVerdict &V : Report.Verdicts)
      ScreenedPlans.push_back(V.Pi);
    EXPECT_EQ(ScreenedPlans, Unscreened.Plans) << "seed " << Seed;
    EXPECT_EQ(Report.BindingsTried, Unscreened.BindingsTried)
        << "seed " << Seed;
    std::ostringstream A, B;
    core::printReport(Report, Ctx, A);
    core::printReport(Oracle, Ctx, B);
    EXPECT_EQ(A.str(), B.str()) << "seed " << Seed;

    size_t Computes = Screened.stats().complianceComputes();
    EXPECT_LE(Computes, Filter.Memo.size()) << "seed " << Seed;
    ScreenedOut += Filter.Memo.size() - std::min(Computes, Filter.Memo.size());
  }
  // Not vacuous: the screens saved products somewhere in the sweep.
  EXPECT_GT(ScreenedOut, 0u);
}

TEST_F(ServiceIndexTest, IndexedVerifierScreensNothingTwice) {
  // Both searches screen through the verifier's one index: the scan
  // merely counts every published service as tried. They look up the same
  // candidate lists, build the same products, and build none for a
  // location the index left out.
  core::VerifierOptions Indexed;
  Indexed.UseIndex = true;
  core::Verifier IV(Ctx, Ex.Repo, Ex.Registry, Indexed);
  core::Verifier SV(Ctx, Ex.Repo, Ex.Registry);
  size_t ITried = 0, STried = 0;
  for (const auto &[Client, Loc] :
       {std::make_pair(Ex.C1, Ex.LC1), std::make_pair(Ex.C2, Ex.LC2)}) {
    core::VerificationReport I = IV.verifyClient(Client, Loc);
    core::VerificationReport S = SV.verifyClient(Client, Loc);
    EXPECT_EQ(I.validPlans(), S.validPlans());
    EXPECT_EQ(I.CandidateCount, S.CandidateCount);
    ITried += I.BindingsTried;
    STried += S.BindingsTried;
  }
  // Per client the scan visits the 5 published services for request 1 and
  // again for request 3 under the one broker binding; the indexed search
  // visits the broker, then the 4 hotels.
  EXPECT_EQ(STried, 2u * (5u + 5u));
  EXPECT_EQ(ITried, 2u * (1u + 4u));

  for (core::Verifier *V : {&IV, &SV}) {
    const ServiceIndex *Index = V->index();
    ASSERT_NE(Index, nullptr);
    IndexStats Stats = Index->stats();
    EXPECT_EQ(Stats.Lookups, 4u);
    EXPECT_EQ(Stats.Hits, 2u);
    EXPECT_EQ(Stats.Candidates, 10u);
    EXPECT_EQ(Stats.AlphabetRejects + Stats.FirstStepRejects, 0u);
    for (const core::VerifierCache::ComplianceEntry &E :
         V->cache()->exportEntries().Compliances) {
      std::vector<Loc> Candidates = Index->candidates(E.RequestBody);
      EXPECT_TRUE(std::any_of(Candidates.begin(), Candidates.end(),
                              [&](Loc L) {
                                return Ex.Repo.find(L) == E.Service;
                              }));
    }
  }
  EXPECT_EQ(IV.stats().complianceComputes(), SV.stats().complianceComputes());
  EXPECT_EQ(SV.stats().complianceComputes(), 5u);
}

TEST_F(ServiceIndexTest, IndexedHotelEnumerationMatchesScan) {
  ComplianceFilter Filter{Ctx, {}};
  EnumeratorOptions Scan;
  Scan.Filter = std::ref(Filter);
  ServiceIndex Index(Ctx, Ex.Repo);
  EnumeratorOptions Indexed = Scan;
  Indexed.Index = &Index;

  for (const Expr *Client : {Ex.C1, Ex.C2}) {
    EnumerationResult S = enumeratePlans(Client, Ex.Repo, Scan);
    EnumerationResult I = enumeratePlans(Client, Ex.Repo, Indexed);
    EXPECT_EQ(S.Plans, I.Plans);
    EXPECT_LE(I.BindingsTried, S.BindingsTried);
  }
}

//===----------------------------------------------------------------------===//
// Incremental maintenance
//===----------------------------------------------------------------------===//

TEST(PlanIndexChurn, PatchedIndexAnswersLikeARebuiltOne) {
  for (unsigned Seed = 0; Seed < 20; ++Seed) {
    HistContext Ctx;
    Lcg Rng{Seed * 0xD1B54A32D192ED03ULL + 7};
    Repository Repo = randomRepository(Ctx, Rng, 10);
    ServiceIndex Index(Ctx, Repo);

    // Churn: remove one location, re-version another, add a fresh one.
    RepositoryDelta Delta;
    Loc Removed = Ctx.symbol("svc" + std::to_string(Rng.below(10)));
    Delta.Changes.push_back(applyRemove(Repo, Removed));
    Loc Replaced = Ctx.symbol("svc" + std::to_string(Rng.below(10)));
    if (Repo.find(Replaced))
      Delta.Changes.push_back(applyPublish(
          Repo, Replaced, randomService(Ctx, Rng, /*BrokerId=*/800)));
    Delta.Changes.push_back(applyPublish(
        Repo, Ctx.symbol("fresh"), randomService(Ctx, Rng, /*BrokerId=*/801)));
    Index.apply(Delta);

    ServiceIndex Rebuilt(Ctx, Repo);
    EXPECT_EQ(Index.size(), Rebuilt.size()) << "seed " << Seed;
    for (unsigned Probe = 0; Probe < 12; ++Probe) {
      const Expr *Body = randomBody(Ctx, Rng);
      EXPECT_EQ(Index.candidates(Body), Rebuilt.candidates(Body))
          << "seed " << Seed << " probe " << Probe;
    }
  }
}

TEST_F(ServiceIndexTest, ApplyDropsTheCandidateMemo) {
  ServiceIndex Index(Ctx, Ex.Repo);
  auto BrokerSites = extractRequests(Ex.Br);
  ASSERT_EQ(BrokerSites.size(), 1u);
  const Expr *Body = BrokerSites[0].body();

  std::vector<Loc> Before = Index.candidates(Body);
  EXPECT_NE(std::find(Before.begin(), Before.end(), Ex.LS3), Before.end());

  // Unpublish s3: the memoized list must not survive the churn.
  RepositoryDelta Delta;
  Delta.Changes.push_back(applyRemove(Ex.Repo, Ex.LS3));
  Index.apply(Delta);

  std::vector<Loc> After = Index.candidates(Body);
  EXPECT_EQ(std::find(After.begin(), After.end(), Ex.LS3), After.end());
  EXPECT_EQ(Index.size(), Ex.Repo.size());
}

TEST_F(ServiceIndexTest, EachBuildOpensOneIndexBuildSpan) {
  // The cold build and the warm one from snapshot summaries each name
  // their layer in a trace.
  trace::enable(/*Capacity=*/256);
  ServiceIndex Cold(Ctx, Ex.Repo);
  ServiceIndex Warm(Ctx, Ex.Repo, Cold.snapshotEntries());
  std::ostringstream OS;
  trace::writeChromeTrace(OS);
  trace::disable();
  trace::reset();
  std::string Text = OS.str();
  size_t Spans = 0;
  for (size_t At = Text.find("\"plan.index.build\""); At != std::string::npos;
       At = Text.find("\"plan.index.build\"", At + 1))
    ++Spans;
  EXPECT_EQ(Spans, 2u);
  EXPECT_EQ(Warm.size(), Cold.size());
}

} // namespace
