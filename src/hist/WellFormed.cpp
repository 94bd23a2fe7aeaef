//===- hist/WellFormed.cpp - Static well-formedness checks ---------------===//

#include "hist/WellFormed.h"

#include "hist/Walk.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace sus;
using namespace sus::hist;

namespace {

// The walk below decides nothing on the production path: isWellFormed
// reads the node facts HistContext computes, and the walk only runs to
// say why a rejected expression is ill-formed. It derives everything
// itself, without the facts, so it doubles as their differential oracle
// (HistTest.WellFormedFactsMatchCheckerWalk, the fuzz parse oracle).

/// Returns true if every execution of \p E performs at least one
/// communication action before terminating or recurring. Used to decide
/// whether a sequence tail is comm-guarded by its head.
bool definitelyCommunicates(const Expr *E) {
  E = forEachHead(
      E, [](const SeqExpr *S) { return !definitelyCommunicates(S->head()); });
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
  case ExprKind::Event:
  case ExprKind::CloseMark:
  case ExprKind::FrameOpen:
  case ExprKind::FrameClose:
    return false;
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
  case ExprKind::Seq: // forEachHead stopped at a head that communicates.
    return true;
  case ExprKind::Mu:
    return definitelyCommunicates(cast<MuExpr>(E)->body());
  case ExprKind::Request:
    return definitelyCommunicates(cast<RequestExpr>(E)->body());
  case ExprKind::Framing:
    return definitelyCommunicates(cast<FramingExpr>(E)->body());
  }
  return false;
}

class Checker {
public:
  explicit Checker(std::vector<WellFormedIssue> &Issues) : Issues(Issues) {}

  /// Walks \p E. \p BoundTail holds the µ-variables for which the current
  /// position is a legal tail position; \p BoundGuarded those whose
  /// occurrences are currently under a communication prefix; \p Bound all
  /// in-scope µ-variables.
  void visit(const Expr *E, std::set<Symbol> Bound,
             std::set<Symbol> TailOk, std::set<Symbol> Guarded) {
    // Along a `;` spine nothing is in tail position inside a head, and
    // the rest inherits guardedness once a head always communicates.
    E = forEachHead(E, [&](const SeqExpr *S) {
      visit(S->head(), Bound, {}, Guarded);
      if (definitelyCommunicates(S->head()))
        Guarded = Bound;
    });
    switch (E->kind()) {
    case ExprKind::Seq: // Never reached: forEachHead walked the spine.
    case ExprKind::Empty:
    case ExprKind::Event:
    case ExprKind::CloseMark:
    case ExprKind::FrameOpen:
    case ExprKind::FrameClose:
      return;

    case ExprKind::Var: {
      Symbol Name = cast<VarExpr>(E)->name();
      if (!Bound.count(Name)) {
        addIssue(WellFormedIssueKind::FreeVariable, Name);
        return;
      }
      if (!TailOk.count(Name))
        addIssue(WellFormedIssueKind::NonTailRecursion, Name);
      if (!Guarded.count(Name))
        addIssue(WellFormedIssueKind::UnguardedRecursion, Name);
      return;
    }

    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      Bound.insert(M->var());
      TailOk.insert(M->var());
      // A fresh µ-variable starts unguarded; an enclosing prefix does not
      // guard the *next* iteration of this µ.
      Guarded.erase(M->var());
      visit(M->body(), std::move(Bound), std::move(TailOk),
            std::move(Guarded));
      return;
    }

    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      // Branch bodies are under a communication prefix: everything bound
      // becomes guarded.
      for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
        visit(B.Body, Bound, TailOk, Bound);
      return;
    }

    case ExprKind::Request: {
      // A recursion variable inside a request body would jump out of the
      // session (close_{r,ϕ} still follows): not a tail position.
      const auto *R = cast<RequestExpr>(E);
      visit(R->body(), std::move(Bound), {}, std::move(Guarded));
      return;
    }

    case ExprKind::Framing: {
      // Same reasoning: ⌋ϕ follows the body.
      const auto *F = cast<FramingExpr>(E);
      visit(F->body(), std::move(Bound), {}, std::move(Guarded));
      return;
    }
    }
  }

private:
  void addIssue(WellFormedIssueKind Kind, Symbol Var) {
    // Deduplicate: report each (kind, var) once.
    for (const WellFormedIssue &I : Issues)
      if (I.Kind == Kind && I.Var == Var)
        return;
    Issues.push_back({Kind, Var});
  }

  std::vector<WellFormedIssue> &Issues;
};

} // namespace

std::vector<WellFormedIssue>
sus::hist::wellFormedIssues(HistContext &Ctx, const Expr *E) {
  (void)Ctx;
  std::vector<WellFormedIssue> Issues;
  Checker C(Issues);
  C.visit(E, {}, {}, {});
  return Issues;
}

bool sus::hist::isWellFormed(HistContext &Ctx, const Expr *E) {
  (void)Ctx;
  return E->isClosed() && !E->hasIllFormedMu();
}

bool sus::hist::checkWellFormed(HistContext &Ctx, const Expr *E,
                                DiagnosticEngine &Diags) {
  if (isWellFormed(Ctx, E))
    return true;
  // Rejected: walk the expression to say why.
  std::vector<WellFormedIssue> Issues = wellFormedIssues(Ctx, E);
  assert(!Issues.empty() && "node facts and the checker walk disagree");
  for (const WellFormedIssue &I : Issues) {
    std::string Name(Ctx.interner().text(I.Var));
    switch (I.Kind) {
    case WellFormedIssueKind::FreeVariable:
      Diags.error("free recursion variable '" + Name + "'");
      break;
    case WellFormedIssueKind::NonTailRecursion:
      Diags.error("recursion variable '" + Name +
                  "' occurs in non-tail position");
      break;
    case WellFormedIssueKind::UnguardedRecursion:
      Diags.error("recursion variable '" + Name +
                  "' is not guarded by a communication action");
      break;
    }
  }
  return Issues.empty();
}
