//===- core/VerifierCache.h - Shared verification memo tables ---*- C++ -*-===//
///
/// \file
/// A session-scoped cache for the §5 verifier. Compliance of a request
/// body against a service depends only on that pair — never on the plan
/// it appears in — so the cache memoizes, keyed on hash-consed Expr*:
///
///  - projections H! (the §4 erasure computed before every product),
///  - pre-screen summaries (contract/Prescreen.h) of those projections,
///    so the scan's filter screens each binding with set intersections
///    and never projects an expression twice,
///  - full ComplianceResults including witnesses (not just the boolean
///    the pruning filter keeps),
///  - per-(client, plan-signature) static-validity results.
///
/// A cache may be shared by several Verifier instances *over the same
/// HistContext, repository and registry* (e.g. the declared-plan checks
/// and the enumeration pass of susc). All methods are mutex-guarded, but
/// computing a miss goes through the single-threaded HistContext, so
/// callers verify on the context's owning thread.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_CORE_VERIFIERCACHE_H
#define SUS_CORE_VERIFIERCACHE_H

#include "contract/Compliance.h"
#include "contract/Prescreen.h"
#include "plan/Plan.h"
#include "plan/RepositoryDelta.h"
#include "support/Sync.h"
#include "validity/StaticValidity.h"

#include <map>
#include <unordered_map>

namespace sus {
namespace core {

/// Observable cache effectiveness counters (monotone per session).
struct VerifierStats {
  size_t ComplianceLookups = 0; ///< compliance() calls.
  size_t ComplianceHits = 0;    ///< ... answered from the memo.
  size_t ProjectionLookups = 0; ///< H! requests (two per compliance miss,
                                ///< one per summary built).
  size_t ProjectionHits = 0;    ///< ... answered from the memo.
  size_t ValidityLookups = 0;   ///< findValidity() calls.
  size_t ValidityHits = 0;      ///< ... answered from the memo.

  size_t complianceComputes() const {
    return ComplianceLookups - ComplianceHits;
  }
  size_t validityComputes() const { return ValidityLookups - ValidityHits; }
};

/// The memo tables. Thread-safe; results are returned by value so no
/// reference outlives the lock.
class VerifierCache {
public:
  /// H! of \p E, memoized across the whole session.
  const hist::Expr *projection(hist::HistContext &Ctx, const hist::Expr *E);

  /// The full Hc! ⊢ Hs! verdict for (request body, service), computed at
  /// most once per session; witnesses are preserved verbatim. A non-null
  /// \p Gov bounds the product exploration on a miss; an exhausted
  /// (inconclusive) result is returned but *not* memoized, so a later
  /// unbounded run recomputes the real verdict.
  contract::ComplianceResult compliance(hist::HistContext &Ctx,
                                        const hist::Expr *RequestBody,
                                        const hist::Expr *Service,
                                        const ResourceGovernor *Gov = nullptr);

  /// The compliance pre-screens on (request body, service), run over
  /// summaries memoized per expression (each built at most once per
  /// session from the memoized projection). A Reject is a sound
  /// refutation — the full check would reject the pair too — and is
  /// counted under plan.prescreen.*; nothing about the pair is memoized.
  contract::PrescreenVerdict prescreen(hist::HistContext &Ctx,
                                       const hist::Expr *RequestBody,
                                       const hist::Expr *Service);

  /// True when the pre-screen summary of \p E is memoized.
  bool hasSummary(const hist::Expr *E) const;

  /// Looks up the static-validity verdict of (client, loc, plan) under a
  /// MaxStates bound; std::nullopt on a miss. Misses are *not* computed
  /// here: the verifier runs the exploration and records its verdict.
  std::optional<validity::StaticValidityResult>
  findValidity(const hist::Expr *Client, plan::Loc ClientLoc,
               const plan::Plan &Pi, size_t MaxStates);

  /// Records a static-validity verdict computed by the verifier.
  /// Resource-exhausted (partial) results are refused — the cache only
  /// ever holds conclusive verdicts — and assert under -DSUS_AUDIT=ON.
  void recordValidity(const hist::Expr *Client, plan::Loc ClientLoc,
                      const plan::Plan &Pi, size_t MaxStates,
                      validity::StaticValidityResult Result);

  VerifierStats stats() const;

  /// What invalidate() removed, for eviction-precision accounting.
  /// [[nodiscard]]: dropping it silently hides how much of the cache a
  /// repository delta just blew away (repair reports sum these).
  struct [[nodiscard]] EvictionStats {
    size_t ValidityEvicted = 0;   ///< Plan verdicts mentioning a touched ℓ.
    size_t ComplianceEvicted = 0; ///< Verdicts against retired services.
    size_t ProjectionEvicted = 0; ///< Projections of retired services.
    size_t SummaryEvicted = 0;    ///< Pre-screen summaries of the same.
  };

  /// Evicts exactly the entries a repository delta can make stale or
  /// unreachable, and nothing else:
  ///
  ///  - validity verdicts whose plan binds any touched location (their
  ///    key resolves locations through the repository, so the verdict no
  ///    longer describes what would be checked today);
  ///  - compliance verdicts, projections and summaries whose *service
  ///    side* is a retired expression — one that a change unpublished and
  ///    that no surviving location still publishes (hash-consing can alias
  ///    one expression across locations, so a retired pointer is garbage
  ///    only once nobody publishes it; \p Current is the post-delta
  ///    truth).
  ///
  /// Entries keyed purely on hash-consed client-side exprs are never
  /// stale — churn can orphan them, not falsify them — so request-body
  /// projections and summaries survive.
  EvictionStats invalidate(const plan::RepositoryDelta &Delta,
                           const plan::Repository &Current);

  /// One memoized compliance verdict, keys flattened for serialization.
  struct ComplianceEntry {
    const hist::Expr *RequestBody = nullptr;
    const hist::Expr *Service = nullptr;
    contract::ComplianceResult Result;
  };

  /// One memoized static-validity verdict, keys flattened likewise.
  struct ValidityEntry {
    const hist::Expr *Client = nullptr;
    plan::Loc ClientLoc;
    plan::Plan Pi;
    size_t MaxStates = 0;
    validity::StaticValidityResult Result;
  };

  /// A by-value view of every memo table, the unit the snapshot codecs
  /// (core/Snapshot.h) encode and absorb. Deterministically ordered (map
  /// iteration order), so identical caches export identical entries.
  struct Entries {
    std::vector<std::pair<const hist::Expr *, const hist::Expr *>>
        Projections;
    std::vector<ComplianceEntry> Compliances;
    std::vector<ValidityEntry> Validities;
  };

  /// Copies out every memoized entry (for snapshotting). The cache never
  /// holds inconclusive results, so everything exported is conclusive.
  /// Summaries are not exported: a loaded session rebuilds them from the
  /// (exported) projections on first use.
  Entries exportEntries() const;

  /// Merges \p E into the memo tables without overwriting anything
  /// already present (live entries were computed in this very process —
  /// they win). Exhausted entries are skipped defensively. Returns how
  /// many entries were newly inserted.
  size_t absorb(const Entries &E);

private:
  /// (client, location, plan bindings, MaxStates) — the plan signature.
  struct ValidityKey {
    const hist::Expr *Client;
    plan::Loc Loc;
    plan::Plan Pi;
    size_t MaxStates;

    bool operator<(const ValidityKey &O) const {
      if (Client != O.Client)
        return Client < O.Client;
      if (Loc != O.Loc)
        return Loc < O.Loc;
      if (MaxStates != O.MaxStates)
        return MaxStates < O.MaxStates;
      return Pi < O.Pi;
    }
  };

  const hist::Expr *projectionLocked(hist::HistContext &Ctx,
                                     const hist::Expr *E) SUS_REQUIRES(M);
  const contract::ContractSummary &summaryLocked(hist::HistContext &Ctx,
                                                 const hist::Expr *E)
      SUS_REQUIRES(M);

  /// Leaf lock over the memo tables and stats. Held across a compliance
  /// product on a miss, but never while calling back into user code, and
  /// no other lock is ever taken under it.
  mutable Mutex M;
  VerifierStats Stats SUS_GUARDED_BY(M);
  std::map<const hist::Expr *, const hist::Expr *>
      Projections SUS_GUARDED_BY(M);
  /// Unordered: never exported, so no iteration order to keep stable.
  std::unordered_map<const hist::Expr *, contract::ContractSummary>
      Summaries SUS_GUARDED_BY(M);
  std::map<std::pair<const hist::Expr *, const hist::Expr *>,
           contract::ComplianceResult>
      Compliances SUS_GUARDED_BY(M);
  std::map<ValidityKey, validity::StaticValidityResult>
      Validities SUS_GUARDED_BY(M);
};

} // namespace core
} // namespace sus

#endif // SUS_CORE_VERIFIERCACHE_H
