//===- support/Diagnostics.h - Diagnostics engine ---------------*- C++ -*-===//
///
/// \file
/// Diagnostic collection for the DSL front end, the verifier and the lint
/// passes. Library code never prints or aborts on user errors: it reports
/// into a DiagnosticEngine and returns failure, letting tools decide how to
/// render. Diagnostics carry an optional stable identifier (e.g.
/// "sus-lint-unreachable-state"), a category, and attached notes; rendering
/// is stably sorted by (file, line, col, severity) with exact duplicates
/// removed, in either human-readable text or machine-readable JSON.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_DIAGNOSTICS_H
#define SUS_SUPPORT_DIAGNOSTICS_H

#include "support/Sync.h"

#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sus {

/// A location in a DSL source buffer (1-based; 0 means "unknown").
///
/// \c File names the buffer the location points into; it is a view so that
/// the thousands of tokens a parse produces share one owner. The string it
/// references (typically the driver's copy of the input path) must outlive
/// every diagnostic carrying the location.
struct SourceLoc {
  unsigned Line = 0;
  unsigned Col = 0;
  std::string_view File;

  bool isValid() const { return Line != 0; }
  friend bool operator==(SourceLoc A, SourceLoc B) {
    return A.Line == B.Line && A.Col == B.Col && A.File == B.File;
  }
};

/// Severity of a diagnostic.
enum class DiagSeverity { Note, Warning, Error };

/// Renders a severity ("note", "warning", "error").
const char *severityName(DiagSeverity S);

/// A note attached to a primary diagnostic (extra context, e.g. the witness
/// trace of a doomed plan). Notes travel with their parent through sorting.
struct DiagNote {
  SourceLoc Loc;
  std::string Message;

  friend bool operator==(const DiagNote &A, const DiagNote &B) {
    return A.Loc == B.Loc && A.Message == B.Message;
  }
};

/// A single rendered diagnostic.
struct Diagnostic {
  DiagSeverity Severity;
  SourceLoc Loc;
  std::string Message;

  /// Stable identifier, e.g. "sus-lint-unreachable-state"; empty for
  /// uncategorized diagnostics (parser errors and the like).
  std::string ID;

  /// Coarse grouping, e.g. "lint.policy"; empty when uncategorized.
  std::string Category;

  /// Attached notes, rendered right below the primary line.
  std::vector<DiagNote> Notes;

  /// Attaches a note; returns *this for chaining.
  Diagnostic &note(SourceLoc NoteLoc, std::string NoteMessage) {
    Notes.push_back({NoteLoc, std::move(NoteMessage)});
    return *this;
  }
};

/// How DiagnosticEngine::print renders.
enum class DiagFormat { Text, Json };

/// Accumulates diagnostics; owned by the tool or test driver.
///
/// Thread safety: report() and the query/render methods may be called
/// concurrently. Every pass in the tree reports from one thread today;
/// the lock keeps the engine safe to share anyway, at one uncontended
/// acquisition per call. The engine serializes its own bookkeeping; the
/// one caller obligation is to finish decorating a returned Diagnostic&
/// (ID, category, notes) before the engine is rendered or cleared —
/// decoration mutates the diagnostic in place and is intentionally
/// outside the lock.
class DiagnosticEngine {
public:
  /// Reports a diagnostic at \p Loc. Messages follow the LLVM style: start
  /// lowercase, no trailing period. The returned reference stays valid
  /// until clear() (storage is a deque: growth never moves elements); use
  /// it to set the ID/category or attach notes.
  Diagnostic &report(DiagSeverity Severity, SourceLoc Loc,
                     std::string Message);

  /// Reports an error with no location.
  Diagnostic &error(std::string Message) {
    return report(DiagSeverity::Error, SourceLoc(), std::move(Message));
  }

  /// Reports an error at \p Loc.
  Diagnostic &error(SourceLoc Loc, std::string Message) {
    return report(DiagSeverity::Error, Loc, std::move(Message));
  }

  /// Reports a warning at \p Loc.
  Diagnostic &warning(SourceLoc Loc, std::string Message) {
    return report(DiagSeverity::Warning, Loc, std::move(Message));
  }

  /// Reports a note at \p Loc.
  Diagnostic &note(SourceLoc Loc, std::string Message) {
    return report(DiagSeverity::Note, Loc, std::move(Message));
  }

  bool hasErrors() const { return errorCount() != 0; }
  unsigned errorCount() const {
    MutexLock Lock(M);
    return NumErrors;
  }

  /// A snapshot of every collected diagnostic, in report order. Returned
  /// by value so no reference escapes the lock.
  std::vector<Diagnostic> diagnostics() const {
    MutexLock Lock(M);
    return std::vector<Diagnostic>(Diags.begin(), Diags.end());
  }

  /// Renders all diagnostics as "file:line:col: severity: message [id]"
  /// lines, stably sorted by (file, line, col, severity) — passes may
  /// interleave files, but the rendering groups them — with exact
  /// duplicates (same severity, location, message, ID) printed once.
  void print(std::ostream &OS) const;

  /// Renders all diagnostics as a JSON array (same order and dedup as
  /// print), one object per diagnostic:
  ///   {"file","line","col","severity","id","category","message","notes"}
  void printJson(std::ostream &OS) const;

  /// Dispatches on \p Format.
  void print(std::ostream &OS, DiagFormat Format) const {
    Format == DiagFormat::Json ? printJson(OS) : print(OS);
  }

  /// Drops all collected diagnostics (invalidates report() references).
  void clear() {
    MutexLock Lock(M);
    Diags.clear();
    NumErrors = 0;
  }

private:
  /// Indices into Diags, sorted for rendering, exact duplicates removed.
  std::vector<size_t> renderOrder() const SUS_REQUIRES(M);

  /// Leaf lock; never held while calling out of the engine.
  mutable Mutex M;
  /// A deque, not a vector: report() hands out references that must
  /// survive later reports.
  std::deque<Diagnostic> Diags SUS_GUARDED_BY(M);
  unsigned NumErrors SUS_GUARDED_BY(M) = 0;
};

} // namespace sus

#endif // SUS_SUPPORT_DIAGNOSTICS_H
