//===- analysis/Lint.h - Semantic lint-pass framework -----------*- C++ -*-===//
///
/// \file
/// The `susc lint` subsystem: a battery of semantic static-analysis passes
/// that run over a parsed .sus file and diagnose degenerate shapes the
/// front end accepts but the paper's machinery treats as defects —
/// unreachable policy states, framings that can never fire, requests no
/// published service can satisfy, loops that never terminate. Passes reuse
/// the verification kernels strictly read-only: linting a file never
/// changes what `susc` verification later reports.
///
/// Each pass owns one stable diagnostic ID (`sus-lint-*`). Severity is
/// configurable per ID (`-Werror`, `-Werror=ID`, `--disable=ID`), and all
/// findings flow through the shared DiagnosticEngine, so text and JSON
/// rendering come for free.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_ANALYSIS_LINT_H
#define SUS_ANALYSIS_LINT_H

#include "hist/HistContext.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace sus {
namespace analysis {

/// Severity and budget configuration for a lint run.
struct LintOptions {
  /// Promote every lint warning to an error (-Werror).
  bool WarningsAsErrors = false;

  /// Promote specific IDs to errors (-Werror=sus-lint-...).
  std::set<std::string, std::less<>> ErrorIds;

  /// Suppress specific IDs entirely (--disable=sus-lint-...).
  std::set<std::string, std::less<>> DisabledIds;

  /// Budget for the doomed-framing pass: candidate plans examined per
  /// client and states explored per plan. Linting stays cheap; the full
  /// verifier remains the authority on plan validity.
  size_t MaxPlansPerClient = 64;
  size_t MaxStatesPerPlan = 1 << 14;

  /// Budget for termination analyses (reachable expressions explored).
  size_t MaxDeriveStates = 1 << 12;
};

/// Everything a pass sees: the parsed file, its context, and the emitter.
/// Passes must treat the file and context as read-only program state —
/// interning new expressions for scratch work (projections, derivatives)
/// is fine, mutating the SusFile is not.
class LintContext {
public:
  LintContext(hist::HistContext &Ctx, const syntax::SusFile &File,
              std::string_view FileName, const LintOptions &Options,
              DiagnosticEngine &Diags)
      : Ctx(Ctx), File(File), FileName(FileName), Options(Options),
        Diags(Diags) {}

  hist::HistContext &context() const { return Ctx; }
  const syntax::SusFile &file() const { return File; }
  std::string_view fileName() const { return FileName; }
  const LintOptions &options() const { return Options; }

  /// Emits one finding for pass \p Id at \p Loc. Applies the severity
  /// configuration: returns null when the ID is disabled (the caller skips
  /// any notes), otherwise the reported diagnostic, promoted to an error
  /// when configured. \p DefaultSeverity must be Warning or Error.
  Diagnostic *emit(std::string_view Id, std::string_view Category,
                   SourceLoc Loc, std::string Message,
                   DiagSeverity DefaultSeverity = DiagSeverity::Warning);

  /// Findings emitted so far (disabled IDs excluded, notes excluded).
  unsigned findings() const { return NumFindings; }

  /// Fallback location: the declaration site of \p Name in \p Locs, with
  /// the lint file name attached even when the declaration is unknown.
  SourceLoc declLoc(const std::map<Symbol, SourceLoc> &Locs,
                    Symbol Name) const;

private:
  hist::HistContext &Ctx;
  const syntax::SusFile &File;
  std::string_view FileName;
  const LintOptions &Options;
  DiagnosticEngine &Diags;
  unsigned NumFindings = 0;
};

/// One semantic analysis pass. Implementations are stateless singletons.
class LintPass {
public:
  virtual ~LintPass() = default;

  /// The stable diagnostic ID this pass emits ("sus-lint-...").
  virtual std::string_view id() const = 0;

  /// Category for grouping ("lint.policy", "lint.framing", ...).
  virtual std::string_view category() const = 0;

  /// One-line human description (for --list-passes and DESIGN.md).
  virtual std::string_view description() const = 0;

  virtual void run(LintContext &LC) const = 0;
};

/// One declared behaviour of a file, with its name.
struct BehaviorRef {
  Symbol Name;
  const hist::Expr *Body;
  bool IsService;
};

/// Every declared behaviour of \p File: services first (repository
/// order), then clients (declaration order).
inline std::vector<BehaviorRef> allBehaviors(const syntax::SusFile &File) {
  std::vector<BehaviorRef> Out;
  for (const auto &[Loc, Service] : File.Repo.services())
    Out.push_back({Loc, Service, true});
  for (const auto &[Name, Client] : File.Clients)
    Out.push_back({Name, Client, false});
  return Out;
}

/// Every registered pass, in the fixed registration order the passes run
/// in (policy hygiene, then framing, then history, then plan checks).
const std::vector<const LintPass *> &allLintPasses();

/// Runs every enabled pass over \p LC; returns the number of findings.
/// A pass whose ID is disabled is skipped entirely.
unsigned runLintPasses(LintContext &LC);

} // namespace analysis
} // namespace sus

#endif // SUS_ANALYSIS_LINT_H
