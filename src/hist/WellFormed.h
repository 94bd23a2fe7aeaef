//===- hist/WellFormed.h - Static well-formedness checks --------*- C++ -*-===//
///
/// \file
/// Checks the paper's syntactic restrictions on history expressions:
/// closedness, tail recursion, and recursion guarded by communication
/// actions (§3: "restricted to be tail-recursive and guarded by
/// communication actions ā or a"). The guard must be a *communication*
/// action so that the projection H! (§4) stays guarded too.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_HIST_WELLFORMED_H
#define SUS_HIST_WELLFORMED_H

#include "hist/Expr.h"
#include "hist/HistContext.h"
#include "support/Diagnostics.h"

namespace sus {
namespace hist {

/// Why an expression is ill-formed.
enum class WellFormedIssueKind {
  FreeVariable,     ///< An unbound recursion variable occurs.
  NonTailRecursion, ///< A µ-variable occurs in non-tail position.
  UnguardedRecursion, ///< A µ-variable is not under a communication prefix.
};

/// One well-formedness violation.
struct WellFormedIssue {
  WellFormedIssueKind Kind;
  Symbol Var; ///< The offending recursion variable.
};

/// Collects every violation in \p E, in walk order, each (kind, variable)
/// once. Empty result means well-formed. This walks the whole expression;
/// it exists to explain a rejection, and isWellFormed is the cheap test.
std::vector<WellFormedIssue> wellFormedIssues(HistContext &Ctx,
                                              const Expr *E);

/// True if \p E is closed, tail-recursive and comm-guarded: a read of the
/// node facts (Expr::isClosed, Expr::hasIllFormedMu).
bool isWellFormed(HistContext &Ctx, const Expr *E);

/// Like isWellFormed, but a rejection reports wellFormedIssues into
/// \p Diags; returns true when well-formed.
bool checkWellFormed(HistContext &Ctx, const Expr *E,
                     DiagnosticEngine &Diags);

} // namespace hist
} // namespace sus

#endif // SUS_HIST_WELLFORMED_H
