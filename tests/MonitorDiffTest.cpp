//===- tests/MonitorDiffTest.cpp - fused vs legacy monitor sweeps ---------===//
///
/// \file
/// Differential tests for the fused-DFA runtime monitor: on ~100 seeded
/// random policy sets and traces, the fused SessionMonitor must make
/// bit-for-bit the same blocked/allowed decisions as the legacy
/// policy::ValidityChecker probe — per label, per multi-label probe, and
/// through the MonitorEngine's sharded batch path — at policy-set widths
/// of 33, 64 and 128, past the product memo's cap, over a cold memo shared
/// by four shards, and step by step through net::Interpreter on the
/// paper's hotel example and the marketplace example. Seeds are fixed;
/// nothing depends on wall-clock or the iteration order of unordered
/// containers.
///
//===----------------------------------------------------------------------===//

#include "core/HotelExample.h"
#include "core/Verifier.h"
#include "fuzz/Differential.h"
#include "monitor/Fused.h"
#include "monitor/MonitorEngine.h"
#include "monitor/SessionMonitor.h"
#include "net/Interpreter.h"
#include "policy/Compile.h"
#include "policy/Validity.h"
#include "support/HashUtil.h"
#include "syntax/FileParser.h"

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace sus;
using hist::Event;
using hist::Label;
using hist::PolicyRef;

namespace {

/// One randomly generated monitoring scenario: a registry of parametric
/// shapes, a set of instantiated references (plus an uninstantiable ghost
/// and the trivial ∅), a closed event universe, and a trace drawn from it.
struct Scenario {
  hist::HistContext Ctx;
  policy::PolicyRegistry Registry;
  std::vector<PolicyRef> Refs;     ///< Instantiable, non-trivial.
  std::vector<PolicyRef> OpenPool; ///< Refs + ghost + trivial (for frames).
  std::vector<Event> Universe;
  std::vector<Label> Trace;
};

policy::Guard randomGuard(std::mt19937_64 &Rng) {
  auto Op = static_cast<policy::CmpOp>(Rng() % 6);
  switch (Rng() % 4) {
  case 0:
    return policy::Guard::always();
  case 1:
    return policy::Guard::cmpParam(Op, 0);
  default:
    return policy::Guard::cmpConst(
        Op, Value::integer(static_cast<int64_t>(1 + Rng() % 3)));
  }
}

/// A random (possibly nondeterministic) shape with one scalar parameter.
policy::UsageAutomaton randomShape(std::mt19937_64 &Rng, Symbol Name,
                                   Symbol ParamName,
                                   const std::vector<Symbol> &EventNames) {
  policy::UsageAutomaton A(Name, {{ParamName, /*IsSet=*/false}});
  unsigned NumStates = 2 + Rng() % 3;
  for (unsigned I = 0; I < NumStates; ++I)
    A.addState("q" + std::to_string(I),
               /*Offending=*/I + 1 == NumStates); // Last state offends.
  unsigned NumEdges = 2 + Rng() % 5;
  for (unsigned I = 0; I < NumEdges; ++I) {
    auto From = static_cast<policy::UStateId>(Rng() % NumStates);
    auto To = static_cast<policy::UStateId>(Rng() % NumStates);
    if (Rng() % 5 == 0)
      A.addWildcardEdge(From, To);
    else
      A.addEdge(From, EventNames[Rng() % EventNames.size()],
                randomGuard(Rng), To);
  }
  return A;
}

/// Heap-allocated because HistContext pins its address (arena + interner).
/// \p Width > 0 asks for exactly that many instantiable references (random
/// shapes instantiated with parameters 1..), otherwise 1-8 of them.
std::unique_ptr<Scenario> makeScenario(uint64_t Seed, size_t TraceLen = 60,
                                       unsigned Width = 0) {
  auto SP = std::make_unique<Scenario>();
  Scenario &S = *SP;
  std::mt19937_64 Rng(Seed);
  StringInterner &In = S.Ctx.interner();

  std::vector<Symbol> EventNames;
  for (const char *N : {"a", "b", "c", "d"})
    EventNames.push_back(In.intern(N));
  Symbol ParamName = In.intern("t");

  unsigned NumShapes = Width ? 4 : 1 + Rng() % 4;
  std::vector<Symbol> Shapes;
  for (unsigned I = 0; I < NumShapes; ++I) {
    Shapes.push_back(In.intern("phi" + std::to_string(I)));
    S.Registry.add(randomShape(Rng, Shapes.back(), ParamName, EventNames));
    unsigned NumInsts = 1 + Rng() % 2;
    for (unsigned K = 0; !Width && K < NumInsts; ++K)
      S.Refs.push_back({Shapes.back(),
                        {{Value::integer(static_cast<int64_t>(1 + Rng() % 3))}}});
  }
  for (unsigned K = 0; K < Width; ++K)
    S.Refs.push_back({Shapes[K % NumShapes],
                      {{Value::integer(static_cast<int64_t>(1 + K / NumShapes))}}});

  for (Symbol N : EventNames)
    for (int64_t V = 1; V <= 3; ++V)
      S.Universe.push_back({N, Value::integer(V)});

  S.OpenPool = S.Refs;
  // An uninstantiable reference (no such shape): opening it violates.
  S.OpenPool.push_back({In.intern("ghost"), {{Value::integer(1)}}});
  // The trivial policy ∅: framing it constrains nothing.
  S.OpenPool.push_back(PolicyRef{});

  for (size_t I = 0; I < TraceLen; ++I) {
    unsigned R = Rng() % 100;
    if (R < 60)
      S.Trace.push_back(
          Label::event(S.Universe[Rng() % S.Universe.size()]));
    else if (R < 80)
      S.Trace.push_back(
          Label::frameOpen(S.OpenPool[Rng() % S.OpenPool.size()]));
    else
      S.Trace.push_back(
          Label::frameClose(S.OpenPool[Rng() % S.OpenPool.size()]));
  }
  return SP;
}

/// Drives \p Fused and a fresh legacy checker through \p S's trace in
/// chunks of 1-3 labels: the multi-label probe, then per label the probe,
/// the commit and the violation latch must agree.
void expectMatchesLegacy(const Scenario &S,
                         const monitor::FusedPolicyAutomaton &F,
                         uint64_t Seed) {
  monitor::SessionMonitor Fused(F);
  policy::ValidityChecker Legacy(S.Registry, S.Ctx.interner());

  std::mt19937_64 ChunkRng(Seed ^ 0x9e3779b97f4a7c15ull);
  size_t I = 0;
  while (I < S.Trace.size()) {
    size_t ChunkLen =
        std::min<size_t>(1 + ChunkRng() % 3, S.Trace.size() - I);
    std::vector<Label> Chunk(S.Trace.begin() + I,
                             S.Trace.begin() + I + ChunkLen);

    // The multi-label probe the Interpreter runs per candidate step.
    EXPECT_EQ(Legacy.wouldRemainValidAll(Chunk), Fused.wouldAdmitAll(Chunk))
        << "seed " << Seed << " probe at " << I;

    for (const Label &L : Chunk) {
      EXPECT_EQ(Legacy.wouldRemainValid(L), Fused.wouldAdmit(L))
          << "seed " << Seed << " wouldAdmit at " << I;
      EXPECT_EQ(Legacy.append(L), Fused.advance(L))
          << "seed " << Seed << " advance at " << I;
      EXPECT_EQ(Legacy.isValid(), !Fused.isViolated())
          << "seed " << Seed << " violation latch at " << I;
      ++I;
    }
  }
}

/// A random label for \p S: 60% universe events, 20% frame opens, 20%
/// frame closes over the open pool.
Label randomLabel(const Scenario &S, std::mt19937_64 &Rng) {
  unsigned R = Rng() % 100;
  if (R < 60)
    return Label::event(S.Universe[Rng() % S.Universe.size()]);
  const PolicyRef &Ref = S.OpenPool[Rng() % S.OpenPool.size()];
  return R < 80 ? Label::frameOpen(Ref) : Label::frameClose(Ref);
}

/// Ingests one 600-item batch of interleaved labels over 8 sessions into
/// \p Engine and checks every decision against per-session legacy
/// checkers, then the latches.
void expectEngineMatchesLegacy(const Scenario &S,
                               monitor::MonitorEngine &Engine, uint64_t Seed) {
  constexpr unsigned NumSessions = 8;
  std::vector<policy::ValidityChecker> Legacy;
  std::vector<monitor::MonitorEngine::SessionId> Ids;
  for (unsigned I = 0; I < NumSessions; ++I) {
    Ids.push_back(Engine.openSession(S.Refs, S.Universe));
    Legacy.emplace_back(S.Registry, S.Ctx.interner());
  }
  std::mt19937_64 Rng(Seed);
  std::vector<monitor::MonitorEngine::BatchItem> Batch;
  Batch.reserve(600);
  for (unsigned I = 0; I < 600; ++I)
    Batch.push_back({Ids[Rng() % NumSessions], randomLabel(S, Rng)});

  std::vector<uint8_t> Decisions;
  Engine.ingest(Batch, &Decisions);
  std::vector<uint8_t> LegacyDecisions(Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I)
    LegacyDecisions[I] =
        Legacy[Batch[I].Session - Ids.front()].append(Batch[I].L) ? 1 : 0;
  EXPECT_EQ(Decisions, LegacyDecisions) << "seed " << Seed;
  for (unsigned I = 0; I < NumSessions; ++I)
    EXPECT_EQ(Engine.isViolated(Ids[I]), !Legacy[I].isValid())
        << "seed " << Seed << " session " << I;
}

class MonitorDiffTest : public ::testing::TestWithParam<int> {};
class MonitorWidthTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

//===----------------------------------------------------------------------===//
// SessionMonitor vs ValidityChecker, label by label and probe by probe
//===----------------------------------------------------------------------===//

TEST_P(MonitorDiffTest, FusedMatchesLegacyProbe) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  std::unique_ptr<Scenario> SP = makeScenario(Seed);
  Scenario &S = *SP;

  expectMatchesLegacy(S,
                      monitor::fusePolicies(S.Registry, S.Ctx.interner(),
                                            S.Refs, S.Universe),
                      Seed);
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, MonitorDiffTest,
                         ::testing::Range(0, 100));

//===----------------------------------------------------------------------===//
// Wide policy sets and the memo cap
//===----------------------------------------------------------------------===//

TEST_P(MonitorWidthTest, WideSetsFuseAndMatchLegacy) {
  unsigned Width = GetParam();
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    std::unique_ptr<Scenario> SP = makeScenario(Seed, /*TraceLen=*/200, Width);
    Scenario &S = *SP;
    monitor::FusedCache Cache;
    std::shared_ptr<const monitor::FusedPolicyAutomaton> F =
        Cache.fuse(S.Registry, S.Ctx.interner(), S.Refs, S.Universe);
    EXPECT_EQ(F->Policies.size(), Width);
    EXPECT_EQ(F->maskWords(), (Width + 63) / 64);
    expectMatchesLegacy(S, *F, Seed);

    monitor::MonitorEngine::Options EO;
    EO.Workers = 4;
    EO.Cache = &Cache;
    monitor::MonitorEngine Engine(S.Registry, S.Ctx.interner(), EO);
    expectEngineMatchesLegacy(S, Engine, Seed);
    EXPECT_EQ(Cache.stats().Fusions, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MonitorWidthTest,
                         ::testing::Values(33u, 64u, 128u));

TEST(MonitorMemoCapTest, PastCapPathMatchesLegacy) {
  unsigned PastCap = 0;
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    std::unique_ptr<Scenario> SP =
        makeScenario(Seed, /*TraceLen=*/120, /*Width=*/Seed % 2 ? 72 : 0);
    Scenario &S = *SP;
    monitor::FusedPolicyAutomaton F = monitor::fusePolicies(
        S.Registry, S.Ctx.interner(), S.Refs, S.Universe, /*MaxStates=*/2);
    expectMatchesLegacy(S, F, Seed);
    EXPECT_LE(F.numStates(), 2u);

    monitor::SessionMonitor Probe(F);
    for (const Label &L : S.Trace)
      Probe.advance(L);
    PastCap += Probe.isPastCap() ? 1 : 0;

    monitor::MonitorEngine::Options EO;
    EO.Workers = 4;
    EO.MaxFusedStates = 2;
    monitor::MonitorEngine Engine(S.Registry, S.Ctx.interner(), EO);
    expectEngineMatchesLegacy(S, Engine, Seed);
  }
  // The cap must actually have been reached, or this tests nothing.
  EXPECT_GE(PastCap, 5u);
}

//===----------------------------------------------------------------------===//
// FusedCache: a fingerprint collision never serves another set's monitor
//===----------------------------------------------------------------------===//

namespace {

/// The V for which hashCombine(Seed, V) yields \p Target: hashCombine is
/// invertible in its value argument.
size_t uncombine(size_t Seed, size_t Target) {
  return (Target ^ Seed) - 0x9e3779b97f4a7c15ULL - (Seed << 6) - (Seed >> 2);
}

} // namespace

TEST(FusedCacheTest, FingerprintCollisionIsNotServed) {
  std::unique_ptr<Scenario> SP = makeScenario(/*Seed=*/3, 0, /*Width=*/6);
  Scenario &S = *SP;
  std::vector<PolicyRef> Full = S.Refs;
  std::vector<Event> Universe = S.Universe;
  monitor::canonicalizePolicySet(Full, Universe);
  uint64_t Target = monitor::policySetFingerprint(Full, Universe);

  // A different request, one policy fewer and one event more, whose extra
  // event is aimed at Full's fingerprint. Its name is interned last, so it
  // sorts last and is mixed in last; its integer argument is solved back
  // through Event::hash and Value::hash.
  std::vector<PolicyRef> Other(Full.begin(), Full.end() - 1);
  size_t Seed = hashAll(Other.size(), Universe.size() + 1);
  for (const PolicyRef &R : Other)
    hashCombine(Seed, R.hash());
  for (const Event &Ev : Universe)
    hashCombine(Seed, Ev.hash());
  Symbol Name = S.Ctx.interner().intern("collider");
  size_t ArgHash = uncombine(hashAll(Name.id()), uncombine(Seed, Target));
  size_t Arg = uncombine(static_cast<size_t>(Value::Kind::Int), ArgHash);
  std::vector<Event> OtherUniverse = Universe;
  OtherUniverse.push_back({Name, Value::integer(static_cast<int64_t>(Arg))});
  monitor::canonicalizePolicySet(Other, OtherUniverse);
  ASSERT_EQ(OtherUniverse.back().Name, Name);
  ASSERT_EQ(monitor::policySetFingerprint(Other, OtherUniverse), Target)
      << "the forged collision no longer matches policySetFingerprint";

  monitor::FusedCache Cache;
  std::shared_ptr<const monitor::FusedPolicyAutomaton> Resident =
      Cache.fuse(S.Registry, S.Ctx.interner(), Full, Universe);
  for (int Round = 0; Round < 2; ++Round) {
    std::shared_ptr<const monitor::FusedPolicyAutomaton> Got =
        Cache.fuse(S.Registry, S.Ctx.interner(), Other, OtherUniverse);
    EXPECT_NE(Got, Resident);
    EXPECT_EQ(Got->Policies, Other);
    EXPECT_EQ(Got->Universe, OtherUniverse);
  }
  EXPECT_EQ(Cache.stats().Hits, 0u);
  EXPECT_EQ(Cache.stats().Fusions, 3u);
  // The resident entry keeps its slot.
  EXPECT_EQ(Cache.fuse(S.Registry, S.Ctx.interner(), Full, Universe),
            Resident);
  EXPECT_EQ(Cache.stats().Hits, 1u);
}

//===----------------------------------------------------------------------===//
// MonitorEngine: sharded batches decide exactly like sequential ones
//===----------------------------------------------------------------------===//

TEST(MonitorEngineTest, ShardedIngestMatchesSequentialAndLegacy) {
  std::unique_ptr<Scenario> SP = makeScenario(/*Seed=*/11, /*TraceLen=*/0);
  Scenario &S = *SP;
  std::mt19937_64 Rng(11);

  monitor::MonitorEngine::Options Wide;
  Wide.Workers = 4;
  monitor::MonitorEngine Sharded(S.Registry, S.Ctx.interner(), Wide);
  monitor::MonitorEngine Sequential(S.Registry, S.Ctx.interner());
  std::vector<policy::ValidityChecker> Legacy;

  constexpr unsigned NumSessions = 8;
  for (unsigned I = 0; I < NumSessions; ++I) {
    EXPECT_EQ(Sharded.openSession(S.Refs, S.Universe), I);
    EXPECT_EQ(Sequential.openSession(S.Refs, S.Universe), I);
    Legacy.emplace_back(S.Registry, S.Ctx.interner());
  }

  // One batch of interleaved per-session labels; decisions must agree
  // item-for-item across shard widths and with per-session legacy runs.
  std::vector<monitor::MonitorEngine::BatchItem> Batch;
  for (unsigned I = 0; I < 600; ++I) {
    auto Session =
        static_cast<monitor::MonitorEngine::SessionId>(Rng() % NumSessions);
    Batch.push_back({Session, randomLabel(S, Rng)});
  }

  std::vector<uint8_t> ShardedDecisions, SequentialDecisions;
  Sharded.ingest(Batch, &ShardedDecisions);
  Sequential.ingest(Batch, &SequentialDecisions);
  EXPECT_EQ(ShardedDecisions, SequentialDecisions);

  std::vector<uint8_t> LegacyDecisions(Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I)
    LegacyDecisions[I] = Legacy[Batch[I].Session].append(Batch[I].L) ? 1 : 0;
  EXPECT_EQ(ShardedDecisions, LegacyDecisions);

  for (unsigned I = 0; I < NumSessions; ++I) {
    EXPECT_EQ(Sharded.isViolated(I), Sequential.isViolated(I));
    EXPECT_EQ(Sharded.isViolated(I), !Legacy[I].isValid());
  }
  EXPECT_EQ(Sharded.stats().Events, Batch.size());
}

TEST(MonitorEngineTest, ColdSharedMemoAcrossFourShards) {
  // One automaton, shared by every session and shard, with only its start
  // state materialized: the first round of the batch starts every session
  // on the cold start row, so the shards race to materialize and publish
  // the same rows while others read them.
  std::unique_ptr<Scenario> SP = makeScenario(/*Seed=*/17, 0, /*Width=*/64);
  Scenario &S = *SP;
  monitor::FusedCache Cache;
  monitor::MonitorEngine::Options EO;
  EO.Workers = 4;
  EO.Cache = &Cache;
  monitor::MonitorEngine Sharded(S.Registry, S.Ctx.interner(), EO);
  monitor::MonitorEngine Sequential(S.Registry, S.Ctx.interner());

  constexpr unsigned NumSessions = 64;
  std::vector<policy::ValidityChecker> Legacy;
  for (unsigned I = 0; I < NumSessions; ++I) {
    Sharded.openSession(S.Refs, S.Universe);
    Sequential.openSession(S.Refs, S.Universe);
    Legacy.emplace_back(S.Registry, S.Ctx.interner());
  }
  ASSERT_EQ(Cache.snapshot().size(), 1u);
  const monitor::FusedPolicyAutomaton &Shared = *Cache.snapshot().front();
  EXPECT_EQ(Shared.numStates(), 1u);

  std::mt19937_64 Rng(17);
  std::vector<monitor::MonitorEngine::BatchItem> Batch;
  Batch.reserve(NumSessions + 4000);
  for (unsigned I = 0; I < NumSessions; ++I)
    Batch.push_back(
        {I, Label::event(S.Universe[Rng() % S.Universe.size()])});
  for (unsigned I = 0; I < 4000; ++I)
    Batch.push_back({static_cast<monitor::MonitorEngine::SessionId>(
                         Rng() % NumSessions),
                     randomLabel(S, Rng)});

  std::vector<uint8_t> ShardedDecisions, SequentialDecisions;
  Sharded.ingest(Batch, &ShardedDecisions);
  Sequential.ingest(Batch, &SequentialDecisions);
  EXPECT_EQ(ShardedDecisions, SequentialDecisions);
  std::vector<uint8_t> LegacyDecisions(Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I)
    LegacyDecisions[I] = Legacy[Batch[I].Session].append(Batch[I].L) ? 1 : 0;
  EXPECT_EQ(ShardedDecisions, LegacyDecisions);
  EXPECT_GT(Shared.numStates(), 1u);
}

TEST(MonitorEngineTest, CacheSharesFusionsAcrossSessions) {
  std::unique_ptr<Scenario> SP = makeScenario(/*Seed=*/13, /*TraceLen=*/0);
  Scenario &S = *SP;
  monitor::FusedCache Cache;
  monitor::MonitorEngine::Options EO;
  EO.Cache = &Cache;
  monitor::MonitorEngine Engine(S.Registry, S.Ctx.interner(), EO);
  for (unsigned I = 0; I < 5; ++I)
    Engine.openSession(S.Refs, S.Universe);
  EXPECT_EQ(Cache.stats().Fusions, 1u);
  EXPECT_EQ(Cache.stats().Hits, 4u);

  // Permuting the request reaches the same canonical entry.
  std::vector<PolicyRef> Reversed(S.Refs.rbegin(), S.Refs.rend());
  Engine.openSession(Reversed, S.Universe);
  EXPECT_EQ(Cache.stats().Fusions, 1u);
  EXPECT_EQ(Cache.stats().Hits, 5u);
}

//===----------------------------------------------------------------------===//
// The Interpreter's monitor, step by step, against the ValidityChecker
//===----------------------------------------------------------------------===//

TEST(MonitorInterpreterTest, StepsMatchValidityOracle) {
  hist::HistContext Ctx;
  core::HotelExample H = core::makeHotelExample(Ctx);

  // pi1/pi2Valid complete cleanly; pi3 exercises angelic blocking (S3 is
  // black-listed by C2's policy); committed-choice mode wedges pi2 on Del.
  std::vector<std::vector<net::NetworkComponent>> Networks = {
      {{H.LC1, H.C1, H.pi1()}, {H.LC2, H.C2, H.pi2Valid()}},
      {{H.LC2, H.C2, H.pi3()}},
      {{H.LC2, H.C2, H.pi2()}},
  };
  bool SawViolation = false;
  for (const auto &Comps : Networks)
    for (bool Committed : {false, true})
      for (bool Monitor : {true, false})
        for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
          net::InterpreterOptions Opts;
          Opts.MonitorEnabled = Monitor;
          Opts.CommittedInternalChoice = Committed;
          net::Interpreter I(Ctx, H.Repo, H.Registry, Comps, Opts);
          EXPECT_EQ(fuzz::checkInterpreterMonitor(I, H.Registry,
                                                  Ctx.interner(), Seed, 256),
                    "")
              << "seed " << Seed << (Monitor ? " monitored" : " unmonitored")
              << (Committed ? ", committed choice" : "");
          for (size_t C = 0; C < I.numComponents(); ++C)
            SawViolation |= I.isViolated(C);
        }
  // pi3 unmonitored must actually violate, or the off-mode half is vacuous.
  EXPECT_TRUE(SawViolation);

  // Marketplace: each client under its first valid plan.
  std::ifstream In(SUS_EXAMPLES_DIR "/marketplace.sus");
  std::stringstream Source;
  Source << In.rdbuf();
  hist::HistContext MCtx;
  DiagnosticEngine Diags;
  std::optional<syntax::SusFile> File =
      syntax::parseSusFile(MCtx, Source.str(), Diags, "marketplace.sus");
  ASSERT_TRUE(File);
  core::Verifier V(MCtx, File->Repo, File->Registry);
  for (const auto &[Name, Client] : File->Clients) {
    core::VerificationReport Report = V.verifyClient(Client, Name);
    const core::PlanVerdict *First = nullptr;
    for (const core::PlanVerdict &Verdict : Report.Verdicts)
      if (!First && Verdict.isValid())
        First = &Verdict;
    ASSERT_TRUE(First) << MCtx.interner().text(Name);
    for (bool Monitor : {true, false})
      for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
        net::InterpreterOptions Opts;
        Opts.MonitorEnabled = Monitor;
        net::Interpreter I(MCtx, File->Repo, File->Registry,
                           {{Name, Client, First->Pi}}, Opts);
        EXPECT_EQ(fuzz::checkInterpreterMonitor(I, File->Registry,
                                                MCtx.interner(), Seed, 256),
                  "")
            << MCtx.interner().text(Name) << " seed " << Seed;
      }
  }
}
