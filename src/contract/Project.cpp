//===- contract/Project.cpp - Projection onto communications -------------===//

#include "contract/Project.h"

#include "hist/Walk.h"
#include "support/Casting.h"
#include "support/Trace.h"

#include <unordered_map>

using namespace sus;
using namespace sus::hist;
using namespace sus::contract;

namespace {

class Projector {
public:
  explicit Projector(HistContext &Ctx) : Ctx(Ctx) {}

  const Expr *visit(const Expr *E) {
    return foldSpine(
        E, Memo, [this](const Expr *X) { return compute(X); },
        [this](const SeqExpr *S, const Expr *Head, const Expr *Tail) {
          return Head == S->head() && Tail == S->tail() ? S
                                                        : Ctx.seq(Head, Tail);
        });
  }

private:
  /// Rebuilds a node only when a child's projection changed it. The
  /// factories are hash-consing normalizers whose outputs are their own
  /// fixpoints, so re-applying one to a node's unchanged children would
  /// return that very node: skipping the call is exact, and a subterm
  /// already in the contract fragment projects to itself unvisited.
  const Expr *compute(const Expr *E) {
    if (E->isContract())
      return E;
    switch (E->kind()) {
    case ExprKind::Empty:
    case ExprKind::Event:
    case ExprKind::Request:   // Nested sessions vanish: (open..close)! = ε.
    case ExprKind::CloseMark: // Residuals of open/framing vanish likewise.
    case ExprKind::FrameOpen:
    case ExprKind::FrameClose:
      return Ctx.empty();
    case ExprKind::Var:
    case ExprKind::Seq: // Never reached: foldSpine rebuilds sequences.
      return E;
    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      const Expr *Body = visit(M->body());
      return Body == M->body() ? E : Ctx.mu(M->var(), Body);
    }
    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      const auto *C = cast<ChoiceExpr>(E);
      std::vector<ChoiceBranch> Branches;
      Branches.reserve(C->numBranches());
      bool Changed = false;
      for (const ChoiceBranch &B : C->branches()) {
        Branches.push_back({B.Guard, visit(B.Body)});
        Changed = Changed || Branches.back().Body != B.Body;
      }
      if (!Changed)
        return E;
      return E->kind() == ExprKind::ExtChoice
                 ? Ctx.extChoice(std::move(Branches))
                 : Ctx.intChoice(std::move(Branches));
    }
    case ExprKind::Framing:
      return visit(cast<FramingExpr>(E)->body());
    }
    return Ctx.empty();
  }

  HistContext &Ctx;
  std::unordered_map<const Expr *, const Expr *> Memo;
};

} // namespace

const Expr *sus::contract::project(HistContext &Ctx, const Expr *E) {
  if (E->isContract())
    return E;
  trace::Span Span("projection", "pipeline");
  Projector P(Ctx);
  return P.visit(E);
}
