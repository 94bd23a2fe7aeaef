//===- tests/PipelineTest.cpp - Memoized verification pipeline tests ------===//
///
/// \file
/// Covers the pieces the memoized §5 pipeline is built from — the
/// work-stealing ThreadPool (shared with the monitor engine and susd) —
/// and its end-to-end guarantees: an unhit governor and the observability
/// layer leave reports element-wise identical (witnesses included),
/// repeated verification is answered from the VerifierCache, and memoized
/// verdicts keep their witnesses.
///
//===----------------------------------------------------------------------===//

#include "core/HotelExample.h"
#include "core/Session.h"
#include "core/Verifier.h"
#include "plan/PlanEnumerator.h"
#include "plan/RequestExtract.h"
#include "policy/Prelude.h"
#include "support/Metrics.h"
#include "support/ResourceGovernor.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <vector>

using namespace sus;
using namespace sus::core;
using namespace sus::hist;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, EveryTaskRunsExactlyOnce) {
  ThreadPool Pool(4);
  constexpr unsigned N = 256;
  std::vector<std::atomic<unsigned>> Runs(N);
  for (unsigned I = 0; I < N; ++I)
    Pool.submit([&Runs, I](unsigned) { Runs[I]++; });
  Pool.waitIdle();
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Runs[I].load(), 1u) << "task " << I;
}

TEST(ThreadPoolTest, WorkerIdsStayInRange) {
  ThreadPool Pool(3);
  ASSERT_EQ(Pool.numWorkers(), 3u);
  std::atomic<bool> OutOfRange{false};
  for (unsigned I = 0; I < 64; ++I)
    Pool.submit([&](unsigned Worker) {
      if (Worker >= 3)
        OutOfRange = true;
    });
  Pool.waitIdle();
  EXPECT_FALSE(OutOfRange.load());
}

TEST(ThreadPoolTest, PoolIsReusableAfterWaitIdle) {
  ThreadPool Pool(2);
  std::atomic<unsigned> Count{0};
  for (unsigned Round = 0; Round < 3; ++Round) {
    for (unsigned I = 0; I < 32; ++I)
      Pool.submit([&](unsigned) { Count++; });
    Pool.waitIdle();
    EXPECT_EQ(Count.load(), 32u * (Round + 1));
  }
}

TEST(ThreadPoolTest, ZeroRequestedWidthStillGetsOneWorker) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numWorkers(), 1u);
  std::atomic<bool> Ran{false};
  Pool.submit([&](unsigned) { Ran = true; });
  Pool.waitIdle();
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPoolTest, DestructionRunsTheQueuedBacklog) {
  // Far more tasks than workers, destroyed without waitIdle: the
  // destructor's drain must *run* every queued-but-unstarted task, never
  // silently drop it.
  constexpr unsigned N = 128;
  std::vector<std::atomic<unsigned>> Runs(N);
  {
    ThreadPool Pool(2);
    // Hold both workers at a gate so most of the N tasks are still queued
    // when destruction starts.
    std::atomic<bool> Gate{false};
    for (unsigned W = 0; W < 2; ++W)
      Pool.submit([&Gate](unsigned) {
        while (!Gate.load())
          std::this_thread::yield();
      });
    for (unsigned I = 0; I < N; ++I)
      Pool.submit([&Runs, I](unsigned) { Runs[I]++; });
    Gate = true;
  }
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Runs[I].load(), 1u) << "task " << I;
}

class PipelineTest : public ::testing::Test {
protected:
  PipelineTest() : Ex(makeHotelExample(Ctx)) {}
  HistContext Ctx;
  HotelExample Ex;
};

//===----------------------------------------------------------------------===//
// Report equality
//===----------------------------------------------------------------------===//

/// Element-wise report equality, down to witness paths, stuck-state
/// pointers and security traces.
void expectReportsEqual(const VerificationReport &S,
                        const VerificationReport &P,
                        const HistContext &Ctx) {
  EXPECT_EQ(S.CandidateCount, P.CandidateCount);
  EXPECT_EQ(S.BindingsTried, P.BindingsTried);
  EXPECT_EQ(S.Truncated, P.Truncated);
  EXPECT_EQ(S.EnumerationExhausted.has_value(),
            P.EnumerationExhausted.has_value());
  ASSERT_EQ(S.Verdicts.size(), P.Verdicts.size());
  for (size_t I = 0; I < S.Verdicts.size(); ++I) {
    const PlanVerdict &A = S.Verdicts[I];
    const PlanVerdict &B = P.Verdicts[I];
    EXPECT_EQ(A.Pi, B.Pi) << "plan " << I;
    ASSERT_EQ(A.RequestChecks.size(), B.RequestChecks.size()) << "plan " << I;
    for (size_t J = 0; J < A.RequestChecks.size(); ++J) {
      const RequestCheck &RA = A.RequestChecks[J];
      const RequestCheck &RB = B.RequestChecks[J];
      EXPECT_EQ(RA.Request, RB.Request);
      EXPECT_EQ(RA.Service, RB.Service);
      EXPECT_EQ(RA.Compliant, RB.Compliant);
      EXPECT_EQ(RA.Exhausted.has_value(), RB.Exhausted.has_value());
      ASSERT_EQ(RA.Witness.has_value(), RB.Witness.has_value());
      if (RA.Witness) {
        EXPECT_EQ(RA.Witness->str(Ctx), RB.Witness->str(Ctx));
        EXPECT_EQ(RA.Witness->ClientStuck, RB.Witness->ClientStuck);
        EXPECT_EQ(RA.Witness->ServerStuck, RB.Witness->ServerStuck);
      }
    }
    EXPECT_EQ(A.Security.Valid, B.Security.Valid) << "plan " << I;
    EXPECT_EQ(A.Security.Failure, B.Security.Failure);
    EXPECT_EQ(A.Security.Policy, B.Security.Policy);
    EXPECT_EQ(A.Security.Request, B.Security.Request);
    EXPECT_EQ(A.Security.Trace, B.Security.Trace) << "plan " << I;
    EXPECT_EQ(A.Security.ExploredStates, B.Security.ExploredStates)
        << "plan " << I;
    EXPECT_EQ(A.Security.HasStuckConfiguration,
              B.Security.HasStuckConfiguration);
    EXPECT_EQ(A.Security.Exhausted.has_value(),
              B.Security.Exhausted.has_value());
    EXPECT_EQ(A.inconclusive(), B.inconclusive()) << "plan " << I;
  }
}

TEST_F(PipelineTest, UnhitGovernorKeepsParallelReportsBitForBit) {
  // A governor armed far above what the workload needs must be
  // observationally absent: identical reports, no inconclusive verdicts,
  // nothing withheld from the cache.
  VerifierOptions Plain;
  VerifierOptions Governed;
  Governed.Governor = std::make_shared<ResourceGovernor>();
  Governed.Governor->setDeadlineAfterMillis(60000);
  Governed.Governor->setProductLimit(1u << 20);

  for (const auto &[Client, Loc] :
       {std::pair{Ex.C1, Ex.LC1}, std::pair{Ex.C2, Ex.LC2}}) {
    Verifier VA(Ctx, Ex.Repo, Ex.Registry, Plain);
    Verifier VB(Ctx, Ex.Repo, Ex.Registry, Governed);
    VerificationReport A = VA.verifyClient(Client, Loc);
    VerificationReport B = VB.verifyClient(Client, Loc);
    expectReportsEqual(A, B, Ctx);
    EXPECT_FALSE(B.anyInconclusive());
  }
}

TEST_F(PipelineTest, ObservabilityUnderParallelVerificationStaysDeterministic) {
  // Tracing and metrics on must not perturb verdicts: a traced run matches
  // an untraced one on a fresh cache. (The many-thread race check for the
  // span ring and sharded instruments lives in sus_support_test.)
  Verifier VPlain(Ctx, Ex.Repo, Ex.Registry);
  VerificationReport Plain = VPlain.verifyClient(Ex.C1, Ex.LC1);

  trace::enable(/*Capacity=*/4096);
  metrics::enable();
  metrics::reset();

  Verifier VTraced(Ctx, Ex.Repo, Ex.Registry);
  VerificationReport Traced = VTraced.verifyClient(Ex.C1, Ex.LC1);
  expectReportsEqual(Plain, Traced, Ctx);

  EXPECT_GT(trace::spanCount(), 0u);
  EXPECT_GT(metrics::counter("verifier.plans_checked").value(), 0u);

  // Both exports render without crashing and carry their envelope.
  std::ostringstream Trace, Json;
  trace::writeChromeTrace(Trace);
  metrics::writeJson(Json);
  EXPECT_NE(Trace.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.str().find("\"schema\": \"sus-metrics-v1\""),
            std::string::npos);

  trace::disable();
  trace::reset();
  metrics::disable();
  metrics::reset();
}

/// A synthetic workload whose security checks run the policy monitors:
/// every service logs two "evHot" events per call but the client's policy
/// allows at most one, so every plan fails with a PolicyViolation and a
/// counterexample trace.
TEST(PipelineChattyTest, ParallelReportMatchesSerialWithPolicyMonitors) {
  constexpr unsigned Depth = 3, Services = 6, Bad = 2;
  auto Build = [&](HistContext &Ctx, plan::Repository &Repo,
                   policy::PolicyRegistry &Registry) -> const Expr * {
    for (unsigned I = 0; I < Services; ++I) {
      const Expr *E = Ctx.empty();
      for (unsigned D = Depth; D > 0; --D) {
        std::string Answer = (I < Bad && D == Depth)
                                 ? "Quux"
                                 : "q" + std::to_string(D - 1);
        E = Ctx.receive("p" + std::to_string(D - 1), Ctx.send(Answer, E));
        if (D == 1)
          E = Ctx.seq(Ctx.seq(E, Ctx.event("evHot", 0)),
                      Ctx.event("evHot", 1));
      }
      Repo.add(Ctx.symbol("svc" + std::to_string(I)), E);
    }
    Registry.add(policy::makeAtMostPolicy(Ctx.interner(), "phiHot", "evHot",
                                          /*Limit=*/1));
    auto Protocol = [&](HistContext &C) {
      const Expr *E = C.empty();
      for (unsigned D = Depth; D > 0; --D)
        E = C.send("p" + std::to_string(D - 1),
                   C.receive("q" + std::to_string(D - 1), E));
      return E;
    };
    PolicyRef Phi;
    Phi.Name = Ctx.symbol("phiHot");
    return Ctx.seq(Ctx.request(100, Phi, Protocol(Ctx)),
                   Ctx.request(101, PolicyRef(), Protocol(Ctx)));
  };

  HistContext Ctx;
  plan::Repository Repo;
  policy::PolicyRegistry Registry;
  const Expr *Client = Build(Ctx, Repo, Registry);
  Verifier V(Ctx, Repo, Registry);
  VerificationReport Report = V.verifyClient(Client, Ctx.symbol("c"));

  // The workload does what it claims: plans exist, none is valid, and the
  // failures are policy violations carrying a trace.
  ASSERT_GT(Report.Verdicts.size(), 1u);
  for (const PlanVerdict &V : Report.Verdicts) {
    EXPECT_FALSE(V.Security.Valid);
    EXPECT_EQ(V.Security.Failure, validity::PlanFailureKind::PolicyViolation);
    EXPECT_FALSE(V.Security.Trace.empty());
  }
}

//===----------------------------------------------------------------------===//
// Cache behaviour
//===----------------------------------------------------------------------===//

TEST_F(PipelineTest, SecondVerificationIsAnsweredFromTheCache) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);

  VerificationReport First = V.verifyClient(Ex.C2, Ex.LC2);
  VerifierStats After1 = V.stats();
  EXPECT_GT(After1.ValidityLookups, 0u);
  EXPECT_GT(After1.ComplianceLookups, 0u);

  VerificationReport Second = V.verifyClient(Ex.C2, Ex.LC2);
  VerifierStats After2 = V.stats();

  // Every security verdict of the second pass is a cache hit, and no new
  // compliance products or explorations are built.
  EXPECT_EQ(After2.ValidityHits - After1.ValidityHits,
            Second.Verdicts.size());
  EXPECT_EQ(After2.validityComputes(), After1.validityComputes());
  EXPECT_EQ(After2.complianceComputes(), After1.complianceComputes());

  expectReportsEqual(First, Second, Ctx);
}

TEST_F(PipelineTest, CacheIsSharedAcrossVerifierInstances) {
  Verifier V1(Ctx, Ex.Repo, Ex.Registry);
  (void)V1.verifyClient(Ex.C1, Ex.LC1);
  size_t Computes = V1.stats().validityComputes();
  EXPECT_GT(Computes, 0u);

  // A second verifier over the same session cache re-answers everything.
  Verifier V2(Ctx, Ex.Repo, Ex.Registry, VerifierOptions(), V1.cache());
  (void)V2.verifyClient(Ex.C1, Ex.LC1);
  EXPECT_EQ(V2.stats().validityComputes(), Computes);
}

TEST_F(PipelineTest, NonCompliantWitnessSurvivesMemoization) {
  Verifier V(Ctx, Ex.Repo, Ex.Registry);

  // Warm the cache through the search's boolean binding filter: request 3
  // lives in the broker's body and S2 does not comply with it.
  std::optional<plan::RequestSite> Site3;
  for (const plan::RequestSite &Site : plan::extractRequests(Ex.Br))
    if (Site.id() == 3)
      Site3 = Site;
  ASSERT_TRUE(Site3.has_value());
  EXPECT_FALSE(V.enumeratorOptions().Filter(*Site3, Ex.LS2, Ex.S2));
  EXPECT_EQ(V.stats().complianceComputes(), 1u);
  VerifierStats Warm = V.stats();

  // The memoized full verdict still carries the witness, on both the
  // first checkPlan and a repeat. The warmed (Body3, S2) pair is a hit on
  // round 0 (only π2's other pair is new work) and the repeat recomputes
  // nothing at all.
  std::string Rendered;
  size_t Computes = 0;
  for (int Round = 0; Round < 2; ++Round) {
    PlanVerdict Verdict = V.checkPlan(Ex.C2, Ex.LC2, Ex.pi2());
    EXPECT_FALSE(Verdict.compliancePassed());
    bool Saw3 = false;
    for (const RequestCheck &C : Verdict.RequestChecks) {
      if (C.Request != 3)
        continue;
      Saw3 = true;
      EXPECT_FALSE(C.Compliant);
      ASSERT_TRUE(C.Witness.has_value());
      EXPECT_NE(C.Witness->str(Ctx).find("Del"), std::string::npos);
      if (Round == 0)
        Rendered = C.Witness->str(Ctx);
      else
        EXPECT_EQ(C.Witness->str(Ctx), Rendered);
    }
    EXPECT_TRUE(Saw3);
    if (Round == 0) {
      EXPECT_GT(V.stats().ComplianceHits, Warm.ComplianceHits);
      Computes = V.stats().complianceComputes();
    } else {
      EXPECT_EQ(V.stats().complianceComputes(), Computes);
    }
  }
}

TEST(PipelineScanTest, HotelScanScreensBindingsBeforeTheProduct) {
  // `susc FILE` on the paper's example scans: every binding counts as
  // tried, but the index proposes only the broker for request 1 and only
  // the hotels for request 3, so the hotel-for-broker and
  // broker-for-hotel bindings are refuted by their absence from a bucket
  // before any product or pre-screen runs. Both clients' request bodies
  // hash-cons to one expression, so each body's candidate list is built
  // once; the products left are the three pairs of the declared plans
  // plus the two enumerated hotels they do not cover.
  std::string Source;
  ASSERT_TRUE(readFile(SUS_EXAMPLES_DIR "/hotel.sus", Source));
  metrics::enable();
  metrics::reset();
  Session S;
  DiagnosticEngine Diags;
  ASSERT_TRUE(S.open(Source, "hotel.sus", VerifierOptions(), Diags));
  std::ostringstream OS;
  EXPECT_EQ(S.verifyAll("", /*Enumerate=*/true, OS), 0);

  EXPECT_EQ(metrics::counter("plan.enumerator.bindings_tried").value(), 20u);
  EXPECT_EQ(S.verifier().stats().complianceComputes(), 5u);
  EXPECT_EQ(metrics::counter("compliance.checks").value(), 5u);
  EXPECT_EQ(metrics::counter("plan.prescreen.alphabet_rejects").value(), 0u);
  EXPECT_EQ(metrics::counter("plan.prescreen.first_step_rejects").value(),
            0u);
  EXPECT_EQ(metrics::counter("plan.index.lookups").value(), 4u);
  EXPECT_EQ(metrics::counter("plan.index.hits").value(), 2u);
  EXPECT_EQ(metrics::counter("plan.index.misses").value(), 2u);
  EXPECT_EQ(metrics::counter("plan.index.candidates").value(), 10u);
  EXPECT_NE(OS.str().find("candidate plans: 3 (bindings tried: 10)"),
            std::string::npos);

  // No product was built for a location the index left out.
  const plan::ServiceIndex *Index = S.verifier().index();
  ASSERT_NE(Index, nullptr);
  for (const VerifierCache::ComplianceEntry &E :
       S.verifier().cache()->exportEntries().Compliances) {
    std::vector<plan::Loc> Candidates = Index->candidates(E.RequestBody);
    EXPECT_TRUE(std::any_of(Candidates.begin(), Candidates.end(),
                            [&](plan::Loc L) {
                              return S.file().Repo.find(L) == E.Service;
                            }));
  }
  metrics::disable();
  metrics::reset();
}

//===----------------------------------------------------------------------===//
// Bind/undo plan enumeration
//===----------------------------------------------------------------------===//

/// R echo services and a Q-request echo client: R^Q complete plans.
struct EchoWorld {
  plan::Repository Repo;
  const Expr *Client;

  EchoWorld(HistContext &Ctx, unsigned R, unsigned Q) {
    for (unsigned I = 0; I < R; ++I)
      Repo.add(Ctx.symbol("svc" + std::to_string(I)),
               Ctx.receive("Ping", Ctx.send("Pong", Ctx.empty())));
    std::vector<const Expr *> Parts;
    for (unsigned I = 0; I < Q; ++I)
      Parts.push_back(Ctx.request(
          100 + I, PolicyRef(),
          Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty()))));
    Client = Ctx.seq(Parts);
  }
};

TEST(EnumeratorTest, BindUndoKeepsCountsAndOrder) {
  HistContext Ctx;
  EchoWorld W(Ctx, /*R=*/3, /*Q=*/2);

  plan::EnumerationResult Full = plan::enumeratePlans(W.Client, W.Repo);
  EXPECT_FALSE(Full.Truncated);
  ASSERT_EQ(Full.Plans.size(), 9u); // 3^2
  // Every binding attempt is counted: 3 at the first request, then 3 per
  // branch at the second.
  EXPECT_EQ(Full.BindingsTried, 12u);
  // Emitted plans are complete and pairwise distinct.
  for (size_t I = 0; I < Full.Plans.size(); ++I) {
    EXPECT_TRUE(Full.Plans[I].lookup(100).has_value());
    EXPECT_TRUE(Full.Plans[I].lookup(101).has_value());
    for (size_t J = I + 1; J < Full.Plans.size(); ++J)
      EXPECT_FALSE(Full.Plans[I] == Full.Plans[J]);
  }
}

TEST(EnumeratorTest, TruncationEmitsTheSamePrefix) {
  HistContext Ctx;
  EchoWorld W(Ctx, /*R=*/3, /*Q=*/2);

  plan::EnumerationResult Full = plan::enumeratePlans(W.Client, W.Repo);
  plan::EnumeratorOptions Opts;
  Opts.MaxPlans = 4;
  plan::EnumerationResult Cut = plan::enumeratePlans(W.Client, W.Repo, Opts);
  EXPECT_TRUE(Cut.Truncated);
  ASSERT_EQ(Cut.Plans.size(), 4u);
  for (size_t I = 0; I < Cut.Plans.size(); ++I)
    EXPECT_EQ(Cut.Plans[I], Full.Plans[I]);
  EXPECT_LE(Cut.BindingsTried, Full.BindingsTried);
}

} // namespace
