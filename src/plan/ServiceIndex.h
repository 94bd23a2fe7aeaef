//===- plan/ServiceIndex.h - Indexed candidate selection --------*- C++ -*-===//
///
/// \file
/// An inverted index over the repository that answers "which published
/// services could possibly comply with this request body?" in time
/// proportional to the answer, not to the repository.
///
/// Layout: every service's projection is summarized once (initial ready
/// sets, syntactic alphabet; contract::ContractSummary) and each action a
/// occurring in one of its initial ready sets registers its location under
/// bucket[ā]. A request body with smallest non-empty initial ready set C₀
/// then looks up ∪_{c ∈ C₀} bucket[c]: Def. 4 clause (1) forces every
/// compliant service to offer a dual of some c ∈ C₀ in each of its initial
/// ready sets, so the union is a superset of the compliant services
/// (soundness argument in DESIGN.md §10). Survivors are cut further with
/// contract::prescreenCompliance before the caller pays for the full
/// product. Services (or bodies) whose projection leaves the contract
/// fragment are never screened — they are always candidates.
///
/// Candidate lists are sorted by location, which is exactly the order
/// Repository::services() iterates in — an indexed enumeration therefore
/// visits surviving candidates in the same order a full scan would, and
/// emits bit-for-bit identical plan sets whenever its screens only drop
/// services a compliance filter would also drop.
///
/// The index is incrementally maintainable: apply(RepositoryDelta) patches
/// only the buckets the touched services contribute to.
///
/// Thread safety: candidates() may summarize new request bodies through
/// the HistContext, which is single-threaded — call it from the context's
/// owning thread only (the enumerator does). Counters and memo tables are
/// still mutex-guarded so concurrent read-only users of a warm index stay
/// safe.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_PLAN_SERVICEINDEX_H
#define SUS_PLAN_SERVICEINDEX_H

#include "contract/Prescreen.h"
#include "plan/Plan.h"
#include "plan/RepositoryDelta.h"
#include "support/Sync.h"

#include <map>
#include <set>
#include <vector>

namespace sus {
namespace plan {

/// Observable index effectiveness counters (monotone per index).
struct IndexStats {
  size_t Lookups = 0;          ///< candidates() calls.
  size_t Hits = 0;             ///< ... served from the per-body memo.
  size_t Candidates = 0;       ///< Locations returned, summed.
  size_t AlphabetRejects = 0;  ///< Bucket survivors cut by the alphabet screen.
  size_t FirstStepRejects = 0; ///< ... cut by the first-step screen.
  size_t Rebuilds = 0;         ///< Full builds (1) + per-service updates.

  size_t misses() const { return Lookups - Hits; }
};

/// The inverted candidate index. Build once per repository, then keep it
/// current with apply() as the repository churns.
class ServiceIndex {
public:
  ServiceIndex(hist::HistContext &Ctx, const Repository &Repo);

  /// One indexed service with its (expensive-to-compute) summary, the
  /// unit of index persistence (serialized by core/Snapshot).
  struct SnapshotEntry {
    Loc Location;
    const hist::Expr *Service = nullptr;
    contract::ContractSummary Summary;
  };

  /// Warm build: like the plain constructor, but a repository entry whose
  /// (location, service) matches one of \p Warm reuses its summary
  /// instead of re-summarizing — loading a snapshot of a 10k-service
  /// repository skips 10k projection+ready-set computations. Entries not
  /// matching the live repository are ignored; unmatched live services
  /// are summarized fresh, so a stale snapshot degrades to a cold build,
  /// never to a wrong index.
  ServiceIndex(hist::HistContext &Ctx, const Repository &Repo,
               const std::vector<SnapshotEntry> &Warm);

  /// Every indexed (location, service, summary), ordered by location.
  std::vector<SnapshotEntry> snapshotEntries() const;

  /// The candidate locations for \p RequestBody: a superset of the
  /// locations whose service complies with it, sorted by location. The
  /// result is memoized per (hash-consed) body; churn invalidates the
  /// memo, never the summaries (those are keyed on immutable exprs).
  std::vector<Loc> candidates(const hist::Expr *RequestBody) const;

  /// Patches the index for one batch of (already applied) repository
  /// churn and drops the candidate-list memo.
  void apply(const RepositoryDelta &Delta);

  /// Published locations currently indexed.
  size_t size() const;

  IndexStats stats() const;

private:
  struct Entry {
    const hist::Expr *Service = nullptr;
    contract::ContractSummary Summary;
  };

  /// Registers/unregisters ℓ's bucket contributions.
  void insertLocked(Loc Location, const hist::Expr *Service) SUS_REQUIRES(M);
  void removeLocked(Loc Location) SUS_REQUIRES(M);

  /// insertLocked with a pre-computed summary (the warm-start path).
  void installLocked(Loc Location, const hist::Expr *Service,
                     contract::ContractSummary Summary) SUS_REQUIRES(M);

  /// Single-threaded by contract (see the thread-safety note above); the
  /// lock does not cover calls into it.
  hist::HistContext &Ctx;
  /// Leaf lock over everything below; nothing else is acquired under it.
  mutable Mutex M;
  mutable IndexStats Stats SUS_GUARDED_BY(M);

  /// bucket[ā] = locations offering action a in some initial ready set.
  std::map<hist::CommAction, std::set<Loc>> Buckets SUS_GUARDED_BY(M);
  /// Locations whose projection is not screenable: always candidates.
  std::set<Loc> Unscreened SUS_GUARDED_BY(M);
  /// Per-location reverse map, for incremental removal.
  std::map<Loc, Entry> Entries SUS_GUARDED_BY(M);
  /// Request-body summaries (immutable: keyed on hash-consed exprs).
  mutable std::map<const hist::Expr *, contract::ContractSummary>
      Bodies SUS_GUARDED_BY(M);
  /// Memoized candidate lists; invalidated wholesale by apply().
  mutable std::map<const hist::Expr *, std::vector<Loc>>
      Memo SUS_GUARDED_BY(M);
};

} // namespace plan
} // namespace sus

#endif // SUS_PLAN_SERVICEINDEX_H
