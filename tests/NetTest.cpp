//===- tests/NetTest.cpp - network interpreter tests ----------------------===//

#include "core/HotelExample.h"
#include "net/Explorer.h"
#include "net/Interpreter.h"
#include "policy/Prelude.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace sus;
using namespace sus::hist;
using namespace sus::net;
using core::HotelExample;
using core::makeHotelExample;

namespace {

class NetTest : public ::testing::Test {
protected:
  NetTest() : Ex(makeHotelExample(Ctx)) {}

  Interpreter makeC1(const plan::Plan &Pi, bool Monitor = true) {
    InterpreterOptions Opts;
    Opts.MonitorEnabled = Monitor;
    return Interpreter(Ctx, Ex.Repo, Ex.Registry,
                       {{Ex.LC1, Ex.C1, Pi}}, Opts);
  }

  HistContext Ctx;
  HotelExample Ex;
};

TEST_F(NetTest, InitialConfigurationOffersOnlyOpen) {
  Interpreter I = makeC1(Ex.pi1());
  auto Steps = I.steps();
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_EQ(Steps[0].K, Step::Kind::Open);
  EXPECT_FALSE(Steps[0].Blocked);
}

TEST_F(NetTest, OpenSpawnsSessionAndLogsFraming) {
  Interpreter I = makeC1(Ex.pi1());
  auto Steps = I.steps();
  ASSERT_TRUE(I.apply(Steps[0]));
  EXPECT_EQ(I.history(0).size(), 1u);
  EXPECT_EQ(I.history(0)[0].kind(), LabelKind::FrameOpen);
  EXPECT_FALSE(I.tree(0).IsLeaf);
}

TEST_F(NetTest, ValidPlanRunsToCompletion) {
  Interpreter I = makeC1(Ex.pi1());
  RunStats Stats = I.run(/*Seed=*/7);
  EXPECT_TRUE(Stats.AllCompleted) << I.configStr();
  EXPECT_EQ(Stats.Violations, 0u);
  EXPECT_EQ(Stats.BlockedAttempts, 0u); // Valid plan: monitor never fires.
  EXPECT_TRUE(I.history(0).isBalanced());
  EXPECT_TRUE(I.isDone(0));
}

TEST_F(NetTest, ValidPlanNeverBlocksAcrossSeeds) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Interpreter I = makeC1(Ex.pi1());
    RunStats Stats = I.run(Seed);
    EXPECT_TRUE(Stats.AllCompleted) << "seed " << Seed;
    EXPECT_EQ(Stats.BlockedAttempts, 0u) << "seed " << Seed;
  }
}

TEST_F(NetTest, MonitorBlocksBlackListedHotel) {
  plan::Plan Bad;
  Bad.bind(1, Ex.LBr);
  Bad.bind(3, Ex.LS1); // Black-listed for C1.
  Interpreter I = makeC1(Bad);
  RunStats Stats = I.run(/*Seed=*/3);
  // The signature event is refused; the component cannot finish.
  EXPECT_FALSE(Stats.AllCompleted);
  EXPECT_GT(Stats.BlockedAttempts, 0u);
  EXPECT_EQ(Stats.Violations, 0u); // Blocked, not violated.
  EXPECT_TRUE(I.history(0).isBalancedPrefix());
}

TEST_F(NetTest, UnmonitoredRunRecordsViolation) {
  plan::Plan Bad;
  Bad.bind(1, Ex.LBr);
  Bad.bind(3, Ex.LS1);
  Interpreter I(Ctx, Ex.Repo, Ex.Registry, {{Ex.LC1, Ex.C1, Bad}},
                InterpreterOptions{/*MonitorEnabled=*/false});
  RunStats Stats = I.run(/*Seed=*/3);
  EXPECT_GT(Stats.Violations, 0u);
  EXPECT_TRUE(I.isViolated(0));
}

TEST_F(NetTest, AngelicSemanticsNeverFiresDel) {
  // Under the paper's angelic semantics the Del branch of S2 simply never
  // synchronizes, so π2 always completes operationally — which is exactly
  // why non-compliance must be caught *statically* (§4).
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    Interpreter I(Ctx, Ex.Repo, Ex.Registry, {{Ex.LC2, Ex.C2, Ex.pi2()}},
                  InterpreterOptions{});
    RunStats Stats = I.run(Seed);
    EXPECT_TRUE(Stats.AllCompleted) << "seed " << Seed;
  }
}

TEST_F(NetTest, CommittedChoiceExposesDelDeadlock) {
  // A real sender decides on its own: once S2 commits to Del, nobody can
  // receive it and the session wedges. Some seed picks Del.
  InterpreterOptions Opts;
  Opts.CommittedInternalChoice = true;
  bool SawStuck = false;
  for (uint64_t Seed = 1; Seed <= 64 && !SawStuck; ++Seed) {
    Interpreter I(Ctx, Ex.Repo, Ex.Registry, {{Ex.LC2, Ex.C2, Ex.pi2()}},
                  Opts);
    RunStats Stats = I.run(Seed);
    if (!Stats.AllCompleted)
      SawStuck = true;
  }
  EXPECT_TRUE(SawStuck);
}

TEST_F(NetTest, CommittedChoiceIsHarmlessForCompliantPlans) {
  InterpreterOptions Opts;
  Opts.CommittedInternalChoice = true;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    Interpreter I(Ctx, Ex.Repo, Ex.Registry, {{Ex.LC1, Ex.C1, Ex.pi1()}},
                  Opts);
    RunStats Stats = I.run(Seed);
    EXPECT_TRUE(Stats.AllCompleted) << "seed " << Seed;
  }
}

TEST_F(NetTest, CompliantPlanForC2AlwaysCompletes) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Interpreter I(Ctx, Ex.Repo, Ex.Registry,
                  {{Ex.LC2, Ex.C2, Ex.pi2Valid()}},
                  InterpreterOptions{});
    RunStats Stats = I.run(Seed);
    EXPECT_TRUE(Stats.AllCompleted) << "seed " << Seed;
  }
}

TEST_F(NetTest, PlanGapStepsAreNeverApplicable) {
  plan::Plan Empty;
  Interpreter I = makeC1(Empty);
  auto Steps = I.steps();
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_TRUE(Steps[0].PlanGap);
  EXPECT_FALSE(I.apply(Steps[0]));
  RunStats Stats = I.run(5);
  EXPECT_EQ(Stats.StepsTaken, 0u);
  EXPECT_FALSE(Stats.AllCompleted);
}

TEST_F(NetTest, RunStatsCleanRunHasNoFailuresOrStuckComponents) {
  Interpreter I = makeC1(Ex.pi1());
  RunStats Stats = I.run(/*Seed=*/7);
  EXPECT_TRUE(Stats.AllCompleted);
  EXPECT_GT(Stats.StepsTaken, 0u);
  EXPECT_EQ(Stats.Violations, 0u);
  EXPECT_EQ(Stats.FailedApplies, 0u);
  EXPECT_TRUE(Stats.StuckComponents.empty());
}

TEST_F(NetTest, RunStatsStuckRunListsTheComponent) {
  plan::Plan Bad;
  Bad.bind(1, Ex.LBr);
  Bad.bind(3, Ex.LS1); // Black-listed for C1: the monitor wedges it.
  Interpreter I = makeC1(Bad);
  RunStats Stats = I.run(/*Seed=*/3);
  EXPECT_FALSE(Stats.AllCompleted);
  ASSERT_EQ(Stats.StuckComponents.size(), 1u);
  EXPECT_EQ(Stats.StuckComponents[0], 0u);
  // Enumerated-but-inapplicable steps are never attempted, so a blocked
  // run still has zero failed applies.
  EXPECT_EQ(Stats.FailedApplies, 0u);
  // At quiescence the component still offers steps — all refused by the
  // monitor, and apply() rejects them rather than forcing them through.
  auto Steps = I.steps();
  bool SawBlocked = false;
  for (const Step &S : Steps)
    if (S.Blocked) {
      SawBlocked = true;
      EXPECT_FALSE(I.apply(S));
    }
  EXPECT_TRUE(SawBlocked);
}

TEST_F(NetTest, RunStatsViolationsOnlyAccrueWithTheMonitorOff) {
  plan::Plan Bad;
  Bad.bind(1, Ex.LBr);
  Bad.bind(3, Ex.LS1);
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Interpreter Monitored = makeC1(Bad);
    RunStats On = Monitored.run(Seed);
    EXPECT_EQ(On.Violations, 0u) << "seed " << Seed;

    Interpreter Unmonitored(Ctx, Ex.Repo, Ex.Registry,
                            {{Ex.LC1, Ex.C1, Bad}},
                            InterpreterOptions{/*MonitorEnabled=*/false});
    RunStats Off = Unmonitored.run(Seed);
    EXPECT_GT(Off.Violations, 0u) << "seed " << Seed;
    EXPECT_EQ(Off.FailedApplies, 0u) << "seed " << Seed;
  }
}

TEST_F(NetTest, RunStatsFailedAppliesIsZeroAcrossSeedsAndModes) {
  // run() re-enumerates before every pick, so an applicable step always
  // applies; FailedApplies > 0 would mean the step/apply contract broke
  // (the run loop then stops instead of counting the step as taken).
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    for (bool Monitor : {true, false}) {
      Interpreter I = makeC1(Ex.pi1(), Monitor);
      RunStats Stats = I.run(Seed);
      EXPECT_EQ(Stats.FailedApplies, 0u)
          << "seed " << Seed << " monitor " << Monitor;
    }
  }
}

TEST_F(NetTest, TwoClientsInterleaveIndependently) {
  // The Fig. 3 network: C1 under π1 and C2 under its valid plan; both
  // components complete regardless of interleaving.
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Interpreter I(Ctx, Ex.Repo, Ex.Registry,
                  {{Ex.LC1, Ex.C1, Ex.pi1()},
                   {Ex.LC2, Ex.C2, Ex.pi2Valid()}},
                  InterpreterOptions{});
    RunStats Stats = I.run(Seed);
    EXPECT_TRUE(Stats.AllCompleted) << "seed " << Seed;
    EXPECT_TRUE(I.history(0).isBalanced());
    EXPECT_TRUE(I.history(1).isBalanced());
  }
}

TEST_F(NetTest, HistoriesArePerComponent) {
  Interpreter I(Ctx, Ex.Repo, Ex.Registry,
                {{Ex.LC1, Ex.C1, Ex.pi1()},
                 {Ex.LC2, Ex.C2, Ex.pi2Valid()}},
                InterpreterOptions{});
  I.run(11);
  // C1's history mentions s3's events; C2's mentions s4's.
  std::string H0 = I.history(0).str(Ctx.interner());
  std::string H1 = I.history(1).str(Ctx.interner());
  EXPECT_NE(H0.find("alpha_sgn(s3)"), std::string::npos);
  EXPECT_NE(H1.find("alpha_sgn(s4)"), std::string::npos);
  EXPECT_EQ(H0.find("alpha_sgn(s4)"), std::string::npos);
  EXPECT_EQ(H1.find("alpha_sgn(s3)"), std::string::npos);
}

TEST_F(NetTest, SessionNestingMatchesFig3Shape) {
  // Drive C1 under π1 up to the nested-session configuration:
  // [c1: ..., [br: ..., s3: ...]].
  Interpreter I = makeC1(Ex.pi1());

  auto ApplyFirst = [&](Step::Kind K) -> bool {
    for (const Step &S : I.steps())
      if (S.K == K && !S.Blocked && !S.PlanGap)
        return I.apply(S);
    return false;
  };

  ASSERT_TRUE(ApplyFirst(Step::Kind::Open));  // open 1 with broker.
  ASSERT_TRUE(ApplyFirst(Step::Kind::Synch)); // Req.
  ASSERT_TRUE(ApplyFirst(Step::Kind::Open));  // broker opens 3 with s3.
  std::string Shape = I.tree(0).str(Ctx);
  EXPECT_EQ(Shape.find("[c1:"), 0u);
  EXPECT_NE(Shape.find("[br:"), std::string::npos);
  EXPECT_NE(Shape.find("s3:"), std::string::npos);
}

TEST_F(NetTest, OuterSessionCannotTalkWhileInnerOpen) {
  Interpreter I = makeC1(Ex.pi1());
  auto ApplyFirst = [&](Step::Kind K) {
    for (const Step &S : I.steps())
      if (S.K == K && !S.Blocked && !S.PlanGap)
        return I.apply(S);
    return false;
  };
  ASSERT_TRUE(ApplyFirst(Step::Kind::Open));
  ASSERT_TRUE(ApplyFirst(Step::Kind::Synch));
  ASSERT_TRUE(ApplyFirst(Step::Kind::Open));
  // s3 fires its events before it can receive IdC.
  while (ApplyFirst(Step::Kind::Access)) {
  }
  // While [br, s3] is open, a Synch step changes only the nested pair:
  // c1's side of the rendering stays as it was.
  std::string Before = I.tree(0).str(Ctx);
  size_t Nested = Before.find(", [br:");
  ASSERT_NE(Nested, std::string::npos);
  ASSERT_TRUE(ApplyFirst(Step::Kind::Synch));
  std::string After = I.tree(0).str(Ctx);
  EXPECT_NE(After, Before);
  EXPECT_EQ(After.find(", [br:"), Nested);
  EXPECT_EQ(After.substr(0, Nested), Before.substr(0, Nested));
}

TEST_F(NetTest, CloseFlushesPendingFramesOfPartner) {
  // A service that opens a frame and never closes it; when the client
  // closes the session, Φ flushes the pending ⌋ϕ into the history.
  PolicyRef NoWaR;
  NoWaR.Name = Ctx.symbol("noWaR");
  policy::PolicyRegistry Registry;
  Registry.add(
      policy::makeNeverAfterPolicy(Ctx.interner(), "noWaR", "r", "w"));

  // Service: go? . ⌊ϕ  (frame opened, never closed).
  const Expr *Service = Ctx.receive("go", Ctx.framing(NoWaR, Ctx.empty()));
  plan::Repository Repo;
  plan::Loc LS = Ctx.symbol("svc");
  Repo.add(LS, Service);

  const Expr *Client = Ctx.request(1, PolicyRef(),
                                   Ctx.send("go", Ctx.empty()));
  plan::Plan Pi;
  Pi.bind(1, LS);
  Interpreter I(Ctx, Repo, Registry, {{Ctx.symbol("c"), Client, Pi}},
                InterpreterOptions{});

  auto ApplyFirst = [&](Step::Kind K) {
    for (const Step &S : I.steps())
      if (S.K == K && !S.Blocked && !S.PlanGap)
        return I.apply(S);
    return false;
  };
  ASSERT_TRUE(ApplyFirst(Step::Kind::Open));
  ASSERT_TRUE(ApplyFirst(Step::Kind::Synch));
  ASSERT_TRUE(ApplyFirst(Step::Kind::Access)); // Service opens the frame.
  ASSERT_TRUE(ApplyFirst(Step::Kind::Close));  // Client closes session.
  EXPECT_TRUE(I.isDone(0));
  // History: ⌊ϕ then the flushed ⌋ϕ — balanced.
  EXPECT_TRUE(I.history(0).isBalanced());
  EXPECT_EQ(I.history(0).size(), 2u);
}

TEST_F(NetTest, AngelicMonitorBlocksOnlyTheOffendingBranch) {
  // A service that, after the handshake, internally chooses between a
  // policy-violating event and a harmless one. Under the angelic monitor
  // runs either complete (good branch) or stall with blocked attempts
  // (bad branch) — but the history never becomes invalid.
  policy::PolicyRegistry Registry;
  Registry.add(
      policy::makeNeverAfterPolicy(Ctx.interner(), "noBad", "ok", "bad"));
  PolicyRef NoBad;
  NoBad.Name = Ctx.symbol("noBad");

  const Expr *Svc = Ctx.receive(
      "go", Ctx.seq(Ctx.event("ok"),
                    Ctx.intChoice({
                        {CommAction::output(Ctx.symbol("a")),
                         Ctx.seq(Ctx.event("bad"), Ctx.empty())},
                        {CommAction::output(Ctx.symbol("b")),
                         Ctx.seq(Ctx.event("fine"), Ctx.empty())},
                    })));
  plan::Repository Repo;
  plan::Loc LS = Ctx.symbol("svc");
  Repo.add(LS, Svc);

  const Expr *Client = Ctx.request(
      1, NoBad,
      Ctx.send("go", Ctx.extChoice({
                         {CommAction::input(Ctx.symbol("a")), Ctx.empty()},
                         {CommAction::input(Ctx.symbol("b")), Ctx.empty()},
                     })));
  plan::Plan Pi;
  Pi.bind(1, LS);

  bool SawCompleted = false, SawBlocked = false;
  for (uint64_t Seed = 1; Seed <= 32; ++Seed) {
    Interpreter I(Ctx, Repo, Registry, {{Ctx.symbol("c"), Client, Pi}},
                  InterpreterOptions{/*MonitorEnabled=*/true});
    RunStats Stats = I.run(Seed);
    EXPECT_FALSE(I.isViolated(0));
    if (Stats.AllCompleted)
      SawCompleted = true;
    if (Stats.BlockedAttempts > 0)
      SawBlocked = true;
  }
  EXPECT_TRUE(SawCompleted);
  EXPECT_TRUE(SawBlocked);
}

//===----------------------------------------------------------------------===//
// Bounded replication (§5 future work)
//===----------------------------------------------------------------------===//

TEST_F(NetTest, CapacityOneSerializesTwoClients) {
  // One echo service with capacity 1; two clients. Both complete, and at
  // least one schedule makes a client wait for the slot.
  const Expr *Echo = Ctx.receive("Ping", Ctx.send("Pong", Ctx.empty()));
  plan::Repository Repo;
  plan::Loc LE = Ctx.symbol("echo");
  Repo.add(LE, Echo, /*Capacity=*/1);
  policy::PolicyRegistry Registry;

  const Expr *Client = Ctx.request(
      1, PolicyRef(), Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty())));
  plan::Plan Pi;
  Pi.bind(1, LE);

  bool SawWait = false;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    Interpreter I(Ctx, Repo, Registry,
                  {{Ctx.symbol("a"), Client, Pi},
                   {Ctx.symbol("b"), Client, Pi}},
                  InterpreterOptions{});
    RunStats Stats = I.run(Seed);
    EXPECT_TRUE(Stats.AllCompleted) << "seed " << Seed;
    SawWait |= Stats.CapacityWaits > 0;
  }
  EXPECT_TRUE(SawWait);
}

TEST_F(NetTest, UnboundedCapacityNeverWaits) {
  const Expr *Echo = Ctx.receive("Ping", Ctx.send("Pong", Ctx.empty()));
  plan::Repository Repo;
  plan::Loc LE = Ctx.symbol("echo");
  Repo.add(LE, Echo); // Unbounded (the paper's default).
  policy::PolicyRegistry Registry;

  const Expr *Client = Ctx.request(
      1, PolicyRef(), Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty())));
  plan::Plan Pi;
  Pi.bind(1, LE);
  Interpreter I(Ctx, Repo, Registry,
                {{Ctx.symbol("a"), Client, Pi},
                 {Ctx.symbol("b"), Client, Pi},
                 {Ctx.symbol("c"), Client, Pi}},
                InterpreterOptions{});
  RunStats Stats = I.run(9);
  EXPECT_TRUE(Stats.AllCompleted);
  EXPECT_EQ(Stats.CapacityWaits, 0u);
}

TEST_F(NetTest, NestedSelfRequestDeadlocksOnCapacityOne) {
  // The client opens a session with the only replica and, inside it,
  // requests the same service again: the inner open waits forever.
  const Expr *Echo = Ctx.receive("Ping", Ctx.send("Pong", Ctx.empty()));
  plan::Repository Repo;
  plan::Loc LE = Ctx.symbol("echo");
  Repo.add(LE, Echo, /*Capacity=*/1);
  policy::PolicyRegistry Registry;

  const Expr *Inner = Ctx.request(
      2, PolicyRef(), Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty())));
  const Expr *Client = Ctx.request(
      1, PolicyRef(),
      Ctx.seq(Inner, Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty()))));
  plan::Plan Pi;
  Pi.bind(1, LE);
  Pi.bind(2, LE);

  Interpreter I(Ctx, Repo, Registry, {{Ctx.symbol("c"), Client, Pi}},
                InterpreterOptions{});
  RunStats Stats = I.run(3);
  EXPECT_FALSE(Stats.AllCompleted);
  EXPECT_GT(Stats.CapacityWaits, 0u);
  EXPECT_EQ(I.sessionsInUse(LE), 1u);
}

TEST_F(NetTest, CapacityTwoAllowsNestedSelfRequest) {
  const Expr *Echo = Ctx.receive("Ping", Ctx.send("Pong", Ctx.empty()));
  plan::Repository Repo;
  plan::Loc LE = Ctx.symbol("echo");
  Repo.add(LE, Echo, /*Capacity=*/2);
  policy::PolicyRegistry Registry;

  const Expr *Inner = Ctx.request(
      2, PolicyRef(), Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty())));
  const Expr *Client = Ctx.request(
      1, PolicyRef(),
      Ctx.seq(Inner, Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty()))));
  plan::Plan Pi;
  Pi.bind(1, LE);
  Pi.bind(2, LE);

  Interpreter I(Ctx, Repo, Registry, {{Ctx.symbol("c"), Client, Pi}},
                InterpreterOptions{});
  RunStats Stats = I.run(3);
  EXPECT_TRUE(Stats.AllCompleted);
  EXPECT_EQ(I.sessionsInUse(LE), 0u); // All slots released.
}

//===----------------------------------------------------------------------===//
// Whole-network exploration
//===----------------------------------------------------------------------===//

TEST_F(NetTest, ExplorerConfirmsHotelNetworkCompletes) {
  auto R = exploreNetwork(Ctx, Ex.Repo,
                          {{Ex.LC1, Ex.C1, Ex.pi1()},
                           {Ex.LC2, Ex.C2, Ex.pi2Valid()}});
  EXPECT_TRUE(R.Exhaustive);
  EXPECT_TRUE(R.CanComplete);
  EXPECT_FALSE(R.DeadlockReachable);
  EXPECT_GT(R.States, 10u);
}

TEST_F(NetTest, ExplorerSeesAngelicNonDeadlockForPi2) {
  // Angelic semantics: even under every interleaving, Del never commits.
  auto R = exploreNetwork(Ctx, Ex.Repo, {{Ex.LC2, Ex.C2, Ex.pi2()}});
  EXPECT_TRUE(R.Exhaustive);
  EXPECT_TRUE(R.CanComplete);
  EXPECT_FALSE(R.DeadlockReachable);
  // Committed choice: the Del branch is a real reachable deadlock.
  ExplorerOptions Committed;
  Committed.CommittedInternalChoice = true;
  auto R2 =
      exploreNetwork(Ctx, Ex.Repo, {{Ex.LC2, Ex.C2, Ex.pi2()}}, Committed);
  EXPECT_TRUE(R2.CanComplete);      // Bok/UnA schedules finish,
  EXPECT_TRUE(R2.DeadlockReachable); // the Del schedule wedges.
  EXPECT_EQ(R2.States, 18u);
  EXPECT_EQ(R2.DeadlockTrace,
            (std::vector<std::string>{
                "c0: open_2:phi({s1,s3},40,70)", "c0: tau(Req!)",
                "c0: open_3:@", "c0: alpha_sgn(s2)", "c0: alpha_p(70)",
                "c0: alpha_ta(100)", "c0: tau(IdC!)", "c0: commit Del!"}));
}

TEST_F(NetTest, ExplorerFindsCapacityDiningDeadlock) {
  // Client A opens svc1 then, inside, svc2; client B opens svc2 then
  // svc1. Capacities 1: individually fine, together a classic deadlock —
  // invisible to per-client verification, found by the explorer.
  const Expr *Echo = Ctx.receive("Ping", Ctx.send("Pong", Ctx.empty()));
  plan::Repository Repo;
  plan::Loc L1 = Ctx.symbol("svc1"), L2 = Ctx.symbol("svc2");
  Repo.add(L1, Echo, /*Capacity=*/1);
  Repo.add(L2, Echo, /*Capacity=*/1);

  auto MakeClient = [&](hist::RequestId Outer, hist::RequestId Inner) {
    const Expr *InnerReq = Ctx.request(
        Inner, PolicyRef(),
        Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty())));
    return Ctx.request(
        Outer, PolicyRef(),
        Ctx.seq(InnerReq,
                Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty()))));
  };
  const Expr *A = MakeClient(10, 11);
  const Expr *B = MakeClient(20, 21);
  plan::Plan PiA, PiB;
  PiA.bind(10, L1);
  PiA.bind(11, L2);
  PiB.bind(20, L2);
  PiB.bind(21, L1);

  auto R = exploreNetwork(Ctx, Repo,
                          {{Ctx.symbol("a"), A, PiA},
                           {Ctx.symbol("b"), B, PiB}});
  EXPECT_TRUE(R.Exhaustive);
  EXPECT_TRUE(R.CanComplete);       // One-at-a-time schedules work.
  EXPECT_TRUE(R.DeadlockReachable); // Both grab their first slot: wedged.
  EXPECT_EQ(R.States, 39u);
  EXPECT_EQ(R.DeadlockTrace,
            (std::vector<std::string>{"c0: open_10:@", "c1: open_20:@"}));

  // With capacity 2 the contention disappears entirely.
  plan::Repository Roomy;
  Roomy.add(L1, Echo, 2);
  Roomy.add(L2, Echo, 2);
  auto R2 = exploreNetwork(Ctx, Roomy,
                           {{Ctx.symbol("a"), A, PiA},
                            {Ctx.symbol("b"), B, PiB}});
  EXPECT_TRUE(R2.CanComplete);
  EXPECT_FALSE(R2.DeadlockReachable);
  EXPECT_EQ(R2.States, 81u);
}

TEST_F(NetTest, ExplorerReportsUnboundRequestAsDeadlock) {
  plan::Plan Empty;
  auto R = exploreNetwork(Ctx, Ex.Repo, {{Ex.LC1, Ex.C1, Empty}});
  EXPECT_FALSE(R.CanComplete);
  EXPECT_TRUE(R.DeadlockReachable);
  EXPECT_TRUE(R.DeadlockTrace.empty()); // Stuck at the initial state.
}

TEST_F(NetTest, ExplorerStateCapReportsNonExhaustive) {
  ExplorerOptions Tiny;
  Tiny.MaxStates = 2;
  auto R = exploreNetwork(Ctx, Ex.Repo, {{Ex.LC1, Ex.C1, Ex.pi1()}}, Tiny);
  EXPECT_FALSE(R.Exhaustive);
}

TEST_F(NetTest, TraceRecordsAppliedSteps) {
  Interpreter I = makeC1(Ex.pi1());
  I.run(1);
  EXPECT_FALSE(I.trace().empty());
  // The trace must contain the session openings.
  bool SawOpen = false;
  for (const std::string &Line : I.trace())
    SawOpen |= Line.find("open_1") != std::string::npos;
  EXPECT_TRUE(SawOpen);
}

TEST_F(NetTest, ConfigStrShowsHistoryAndTree) {
  Interpreter I = makeC1(Ex.pi1());
  std::string S = I.configStr();
  EXPECT_NE(S.find("c1:"), std::string::npos);
  I.run(1);
  std::string S2 = I.configStr();
  EXPECT_NE(S2.find("alpha_sgn(s3)"), std::string::npos);
}

} // namespace
