//===- core/Snapshot.h - Persistent VerifierCache snapshots -----*- C++ -*-===//
///
/// \file
/// Whole-session snapshot save/load on top of the serialize/ layer: one
/// blob captures the repository signature, the VerifierCache memo tables
/// (projections, compliance verdicts with witnesses, static-validity
/// verdicts) and the ServiceIndex summaries, so a restarted susd resumes
/// with a warm cache (DESIGN.md §13).
///
/// Loading is *all-or-nothing*: every section is decoded and validated
/// into staging first, and only a fully valid snapshot is absorbed into
/// the live cache — a corrupt or mismatched snapshot leaves the cache
/// exactly as it was (the HistContext may have interned extra strings
/// and expressions, which is semantically inert under hash-consing).
///
/// A snapshot is bound to the repository it was cut from: the loader
/// re-interns the recorded (location, service) pairs and requires them
/// to match the live repository pointer-for-pointer. Cache keys are
/// hash-consed expression identities, so this check is exactly what
/// makes the absorbed verdicts meaningful. Churn between save and load
/// must therefore be replayed through Verifier::applyDelta *before*
/// saving (which evicts precisely the stale entries) — the snapshot
/// then records the already-invalidated state.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_CORE_SNAPSHOT_H
#define SUS_CORE_SNAPSHOT_H

#include "core/VerifierCache.h"
#include "plan/ServiceIndex.h"

#include <string>
#include <string_view>
#include <vector>

namespace sus {
namespace core {

/// What a snapshot holds (save) or held (load), for logs and tests.
struct SnapshotStats {
  size_t Strings = 0;
  size_t Exprs = 0;
  size_t Repository = 0;
  size_t Projections = 0;
  size_t Compliances = 0;
  size_t Validities = 0;
  size_t IndexEntries = 0;
  size_t Bytes = 0;
};

/// Serializes the session: repository signature, cache memo tables, the
/// index summaries (when \p Index is non-null).
std::string saveSnapshot(const hist::HistContext &Ctx,
                         const plan::Repository &Repo,
                         const VerifierCache &Cache,
                         const plan::ServiceIndex *Index = nullptr,
                         SnapshotStats *Stats = nullptr);

/// Outcome of loadSnapshot. On failure Error is a one-line diagnostic
/// and nothing was absorbed.
struct SnapshotLoadResult {
  bool Ok = false;
  std::string Error;
  SnapshotStats Stats;
  /// The persisted index summaries (empty when the snapshot carried
  /// none); feed to the ServiceIndex warm constructor.
  std::vector<plan::ServiceIndex::SnapshotEntry> IndexEntries;
};

/// Decodes \p Bytes, validates everything against \p Repo, and absorbs
/// the entries into \p Cache (existing live entries win). See the
/// all-or-nothing contract above.
SnapshotLoadResult loadSnapshot(std::string_view Bytes,
                                hist::HistContext &Ctx,
                                const plan::Repository &Repo,
                                VerifierCache &Cache);

} // namespace core
} // namespace sus

#endif // SUS_CORE_SNAPSHOT_H
