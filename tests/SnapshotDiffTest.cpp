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
