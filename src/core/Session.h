//===- core/Session.h - The request core of susc and susd -------*- C++ -*-===//
///
/// \file
/// One verification session over one .sus file, served one-shot by susc
/// and resident by susd. A Session owns the source text and file name,
/// the HistContext, the parsed SusFile, and the Verifier with its
/// VerifierCache, and implements the requests both tools serve: the
/// per-client §5 verify report, the seeded churn replay, and snapshot
/// load/save. Both tools write the bytes these functions write, so
/// their outputs cannot drift apart (DESIGN.md §13). Reports are kept
/// per client, so a repeated verify writes them without recomputing.
///
/// A Session is single-threaded, like the HistContext it owns; susd
/// serializes requests on its own lock. It cannot be copied or moved:
/// the parsed file's source locations point into the owned file name.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_CORE_SESSION_H
#define SUS_CORE_SESSION_H

#include "core/Repair.h"
#include "core/Snapshot.h"
#include "core/Verifier.h"
#include "syntax/FileParser.h"

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

namespace sus {
namespace core {

/// What one client's verify request found.
struct ClientOutcome {
  /// The first valid declared plan, else the first valid enumerated one.
  std::optional<plan::Plan> FirstValid;
  /// Some verdict was Inconclusive(resource).
  bool Inconclusive = false;
};

/// The report memo's counters (DESIGN.md §13): lookups are the verify
/// requests it may answer, hits the ones it did.
struct ReportMemoStats {
  uint64_t Hits = 0;
  uint64_t Lookups = 0;
  size_t Entries = 0;
};

/// Folds per-client results into the susc exit contract: 3 when any
/// verdict was Inconclusive(resource) (a missing plan under a tripped
/// budget is not a refutation), else 1 when some client has no valid
/// plan, else 0.
struct ExitTally {
  bool AllOk = true;
  bool AnyInconclusive = false;

  void add(bool HasValid, bool Inconclusive) {
    AllOk = AllOk && HasValid;
    AnyInconclusive = AnyInconclusive || Inconclusive;
  }
  int code() const { return AnyInconclusive ? 3 : (AllOk ? 0 : 1); }
};

class Session {
public:
  Session() = default;
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Parses \p Source (source locations carry \p FileName) and builds the
  /// verifier. False when the file does not parse; the diagnostics are in
  /// \p Diags either way, for the caller to print.
  bool open(std::string Source, std::string FileName, VerifierOptions Opts,
            DiagnosticEngine &Diags);

  hist::HistContext &ctx() { return Ctx; }
  syntax::SusFile &file() { return *File; }
  Verifier &verifier() { return *V; }
  const std::string &fileName() const { return FileName; }

  /// Verifies one client into \p OS: its declared plans (only \p OnlyPlan
  /// when non-empty), then, with \p Enumerate and no \p OnlyPlan, the
  /// enumerated candidates' report.
  ///
  /// A request without \p OnlyPlan on a verifier with no governor armed
  /// goes through the report memo, keyed by (client, \p Enumerate): the
  /// first one renders and keeps the bytes and outcome, every repeat
  /// writes the kept bytes. The memo holds at most two entries a client
  /// and is cleared by replayChurn and loadSnapshot, the only requests
  /// that change what a report says. A governed request neither reads nor
  /// fills it: its report may carry a budget's Inconclusive verdicts.
  ClientOutcome verifyClient(Symbol Name, const hist::Expr *Client,
                             const std::string &OnlyPlan, bool Enumerate,
                             std::ostream &OS);

  /// verifyClient over every client; returns the ExitTally code.
  int verifyAll(const std::string &OnlyPlan, bool Enumerate,
                std::ostream &OS);

  /// Runs \p Rounds churn rounds against \p Repair's client: each round
  /// removes and then re-publishes one service drawn by the LCG whose
  /// state is \p Rng, repairing the report after each change. Writes the
  /// "churn:", "repair latency:" and "valid plans after churn:" lines.
  /// Returns false when a governor cut a repair short (the round is
  /// reported Inconclusive and the replay stops). The repository must be
  /// non-empty.
  bool replayChurn(RepairSession &Repair, uint64_t Rounds, uint64_t &Rng,
                   std::ostream &OS);

  /// Absorbs a snapshot into the cache and warm-starts the index from it.
  /// False with a diagnostic in \p Err when the snapshot is rejected; the
  /// cache is then untouched.
  bool loadSnapshot(std::string_view Bytes, std::string &Err,
                    SnapshotStats *Stats = nullptr);

  /// Serializes the cache and (building it first if needed) the index.
  std::string saveSnapshot(SnapshotStats *Stats = nullptr);

  ReportMemoStats reportMemoStats() const {
    return {MemoHits, MemoLookups, Memo.size()};
  }

private:
  /// One client's report, rendered afresh (verifyClient without the memo).
  ClientOutcome renderClient(Symbol Name, const hist::Expr *Client,
                             const std::string &OnlyPlan, bool Enumerate,
                             std::ostream &OS);

  /// A kept report: the bytes written and the outcome they earned.
  struct MemoEntry {
    std::string Text;
    ClientOutcome Outcome;
  };

  std::string Source;
  std::string FileName;
  hist::HistContext Ctx;
  std::optional<syntax::SusFile> File;
  std::unique_ptr<Verifier> V;
  /// The report memo, keyed by client symbol id * 2 + Enumerate.
  std::unordered_map<uint64_t, MemoEntry> Memo;
  uint64_t MemoHits = 0, MemoLookups = 0;
};

/// Reads the whole file at \p Path; false when it cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

/// The crash-safe snapshot writer: writes \p Bytes to a fresh temp file
/// in \p Path's directory, fsyncs it and renames it over \p Path, so a
/// crash at any point leaves either the old file or the new one. False
/// with a diagnostic in \p Err (and no file left behind) on failure. A
/// save that succeeds also unlinks the temp files of earlier saves of
/// \p Path that were killed before their rename (their pid no longer
/// runs).
bool writeFileAtomic(const std::string &Path, std::string_view Bytes,
                     std::string &Err);

} // namespace core
} // namespace sus

#endif // SUS_CORE_SESSION_H
