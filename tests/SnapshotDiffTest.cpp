//===- tests/SnapshotDiffTest.cpp - warm-restart equivalence sweeps -------===//
///
/// \file
/// Differential tests for the persistent cache snapshot (DESIGN.md §13):
/// a snapshot cut after a cold verification must reload into a fresh
/// HistContext (simulating a restarted susd) and reproduce the cold
/// verdict stream bit for bit — on the paper's hotel example and on a
/// sweep of seeded generated programs — while mismatched repositories,
/// wrong-version blobs and double loads behave per the strictness
/// contract. Seeds are fixed; nothing depends on wall-clock.
///
//===----------------------------------------------------------------------===//

#include "core/Snapshot.h"
#include "core/Verifier.h"
#include "fuzz/Generator.h"
#include "monitor/SessionMonitor.h"
#include "policy/Compile.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

using namespace sus;

namespace {

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// One parsed session with its own context, cache and verifier.
struct Session {
  hist::HistContext Ctx;
  std::optional<syntax::SusFile> File;
  std::shared_ptr<core::VerifierCache> Cache;
  std::unique_ptr<core::Verifier> V;

  explicit Session(const std::string &Source, bool UseIndex = true) {
    DiagnosticEngine Diags;
    File = syntax::parseSusFile(Ctx, Source, Diags, "snap.sus");
    EXPECT_TRUE(File.has_value());
    if (!File)
      return;
    core::VerifierOptions Opts;
    Opts.UseIndex = UseIndex;
    Cache = std::make_shared<core::VerifierCache>();
    V = std::make_unique<core::Verifier>(Ctx, File->Repo, File->Registry,
                                         Opts, Cache);
  }

  /// Renders every client's full report — the byte stream the snapshot
  /// must preserve across a restart.
  std::string verifyAll() {
    std::ostringstream OS;
    for (const auto &[Name, Client] : File->Clients) {
      core::VerificationReport Report = V->verifyClient(Client, Name);
      core::printReport(Report, Ctx, OS);
    }
    return OS.str();
  }

  std::string snapshot(core::SnapshotStats *Stats = nullptr) {
    return core::saveSnapshot(Ctx, File->Repo, *Cache, V->index(), Stats);
  }

  /// Loads \p Bytes and, on success, adopts the persisted index.
  core::SnapshotLoadResult load(const std::string &Bytes) {
    core::SnapshotLoadResult R =
        core::loadSnapshot(Bytes, Ctx, File->Repo, *Cache);
    if (R.Ok && !R.IndexEntries.empty())
      V->adoptIndex(std::make_unique<plan::ServiceIndex>(Ctx, File->Repo,
                                                         R.IndexEntries));
    return R;
  }
};

/// A 64-policy monitor request over \p S's hotel repository: phi({s1},p,t)
/// for p in 40..47 and t in 80..87, over every event the file can fire.
std::pair<std::vector<hist::PolicyRef>, std::vector<hist::Event>>
widePolicyRequest(Session &S) {
  StringInterner &In = S.Ctx.interner();
  std::vector<hist::PolicyRef> Refs;
  Refs.reserve(64);
  for (int64_t P = 40; P < 48; ++P)
    for (int64_t T = 80; T < 88; ++T)
      Refs.push_back({In.intern("phi"),
                      {{Value::name(In.intern("s1"))},
                       {Value::integer(P)},
                       {Value::integer(T)}}});
  std::vector<const hist::Expr *> Behaviors;
  for (plan::Loc L : S.File->Repo.locations())
    Behaviors.push_back(S.File->Repo.find(L));
  for (const auto &[Name, Client] : S.File->Clients)
    Behaviors.push_back(Client);
  return {Refs, policy::eventUniverse(Behaviors)};
}

/// The cold-vs-warm equivalence check at the heart of the suite.
void expectWarmRestartIdentical(const std::string &Source) {
  Session Cold(Source);
  ASSERT_TRUE(Cold.V);
  std::string ColdText = Cold.verifyAll();
  core::SnapshotStats Stats;
  std::string Bytes = Cold.snapshot(&Stats);
  EXPECT_EQ(Stats.Bytes, Bytes.size());

  Session Warm(Source);
  ASSERT_TRUE(Warm.V);
  core::SnapshotLoadResult R = Warm.load(Bytes);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.Compliances, Stats.Compliances);
  EXPECT_EQ(R.Stats.Validities, Stats.Validities);
  EXPECT_EQ(Warm.verifyAll(), ColdText);
}

TEST(SnapshotDiff, HotelWarmRestartIsBitForBitIdentical) {
  expectWarmRestartIdentical(readWholeFile(SUS_EXAMPLES_DIR "/hotel.sus"));
}

TEST(SnapshotDiff, MarketplaceWarmRestartIsBitForBitIdentical) {
  expectWarmRestartIdentical(
      readWholeFile(SUS_EXAMPLES_DIR "/marketplace.sus"));
}

TEST(SnapshotDiff, SeededGeneratedProgramsSurviveRestart) {
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    fuzz::GeneratedProgram P = fuzz::generateProgram(Seed, {});
    SCOPED_TRACE("seed " + std::to_string(Seed));
    expectWarmRestartIdentical(P.source());
  }
}

TEST(SnapshotDiff, WarmCacheServesHitsNotRecomputation) {
  std::string Source = readWholeFile(SUS_EXAMPLES_DIR "/hotel.sus");
  Session Cold(Source);
  Cold.verifyAll();
  std::string Bytes = Cold.snapshot();

  Session Warm(Source);
  ASSERT_TRUE(Warm.load(Bytes).Ok);
  Warm.verifyAll();
  // Every compliance pair the warm run needed was already in the
  // snapshot: no new entries appear, and the lookups all hit.
  EXPECT_EQ(Warm.Cache->exportEntries().Compliances.size(),
            Cold.Cache->exportEntries().Compliances.size());
  EXPECT_EQ(Warm.Cache->stats().ComplianceHits,
            Warm.Cache->stats().ComplianceLookups);
}

TEST(SnapshotDiff, SnapshotFromDifferentRepositoryIsRejected) {
  std::string Hotel = readWholeFile(SUS_EXAMPLES_DIR "/hotel.sus");
  std::string Market = readWholeFile(SUS_EXAMPLES_DIR "/marketplace.sus");
  Session Cold(Hotel);
  Cold.verifyAll();
  std::string Bytes = Cold.snapshot();

  Session Other(Market);
  core::SnapshotLoadResult R = Other.load(Bytes);
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("repository"), std::string::npos) << R.Error;
  // The rejection absorbed nothing.
  EXPECT_EQ(Other.Cache->exportEntries().Compliances.size(), 0u);
}

TEST(SnapshotDiff, LoadingTwiceIsIdempotent) {
  std::string Source = readWholeFile(SUS_EXAMPLES_DIR "/hotel.sus");
  Session Cold(Source);
  std::string ColdText = Cold.verifyAll();
  std::string Bytes = Cold.snapshot();

  Session Warm(Source);
  ASSERT_TRUE(Warm.load(Bytes).Ok);
  ASSERT_TRUE(Warm.load(Bytes).Ok); // Live entries win; absorb is a no-op.
  EXPECT_EQ(Warm.verifyAll(), ColdText);
}

TEST(SnapshotDiff, EmptyCacheSnapshotRoundTrips) {
  std::string Source = readWholeFile(SUS_EXAMPLES_DIR "/hotel.sus");
  Session Cold(Source);
  std::string Bytes = Cold.snapshot(); // Nothing verified yet.
  Session Warm(Source);
  core::SnapshotLoadResult R = Warm.load(Bytes);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.Compliances, 0u);
  // A cold verify after the empty load still works and matches scratch.
  Session Scratch(Source);
  EXPECT_EQ(Warm.verifyAll(), Scratch.verifyAll());
}

} // namespace

TEST(SnapshotDiff, WideFusedMonitorRoundTrips) {
  std::string Source = readWholeFile(SUS_EXAMPLES_DIR "/hotel.sus");
  Session Cold(Source);
  auto [Refs, Universe] = widePolicyRequest(Cold);
  std::shared_ptr<const monitor::FusedPolicyAutomaton> ColdF =
      Cold.Cache->fusedMonitors().fuse(Cold.File->Registry,
                                       Cold.Ctx.interner(), Refs, Universe);
  ASSERT_TRUE(ColdF);
  ASSERT_EQ(ColdF->Policies.size(), 64u);
  std::string Bytes = Cold.snapshot();

  Session Warm(Source);
  core::SnapshotLoadResult R = Warm.load(Bytes);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.FusedMonitors, 1u);
  auto [WarmRefs, WarmUniverse] = widePolicyRequest(Warm);
  std::shared_ptr<const monitor::FusedPolicyAutomaton> WarmF =
      Warm.Cache->fusedMonitors().fuse(Warm.File->Registry,
                                       Warm.Ctx.interner(), WarmRefs,
                                       WarmUniverse);
  ASSERT_TRUE(WarmF);
  // Served from the snapshot, not re-fused.
  EXPECT_EQ(Warm.Cache->fusedMonitors().stats().Hits, 1u);
  EXPECT_EQ(Warm.Cache->fusedMonitors().stats().Fusions, 0u);

  // The per-policy DFAs survive unchanged...
  ASSERT_EQ(WarmF->Parts.size(), ColdF->Parts.size());
  ASSERT_EQ(WarmF->Universe.size(), ColdF->Universe.size());
  for (size_t P = 0; P < ColdF->Parts.size(); ++P) {
    const automata::Dfa &A = ColdF->Parts[P], &B = WarmF->Parts[P];
    ASSERT_EQ(A.numStates(), B.numStates());
    EXPECT_EQ(A.start(), B.start());
    for (automata::StateId St = 0; St < A.numStates(); ++St) {
      EXPECT_EQ(A.isAccepting(St), B.isAccepting(St));
      for (uint32_t Idx = 0; Idx < ColdF->Universe.size(); ++Idx)
        EXPECT_EQ(A.stepIndex(St, Idx), B.stepIndex(St, Idx));
    }
  }
  // ...and the restored monitor, starting from an empty memo, decides
  // like the cold one with every frame open.
  monitor::SessionMonitor C(*ColdF), W(*WarmF);
  for (size_t I = 0; I < Refs.size(); ++I) {
    EXPECT_EQ(C.advance(hist::Label::frameOpen(ColdF->Policies[I])),
              W.advance(hist::Label::frameOpen(WarmF->Policies[I])));
  }
  for (size_t I = 0; I < ColdF->Universe.size(); ++I) {
    hist::Label CL = hist::Label::event(ColdF->Universe[I]);
    hist::Label WL = hist::Label::event(WarmF->Universe[I]);
    EXPECT_EQ(C.wouldAdmit(CL), W.wouldAdmit(WL)) << I;
    EXPECT_EQ(C.advance(CL), W.advance(WL)) << I;
  }
}
