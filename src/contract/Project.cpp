//===- contract/Project.cpp - Projection onto communications -------------===//

#include "contract/Project.h"

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
    auto It = Memo.find(E);
    if (It != Memo.end())
      return It->second;
    const Expr *Result = compute(E);
    Memo.emplace(E, Result);
    return Result;
  }

private:
  /// Rebuilds a node only when a child's projection changed it. The
  /// factories are hash-consing normalizers whose outputs are their own
  /// fixpoints, so re-applying one to a node's unchanged children would
  /// return that very node: skipping the call is exact, and a service
  /// already in the contract fragment projects to itself without a
  /// single factory lookup.
  const Expr *compute(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Empty:
    case ExprKind::Event:
    case ExprKind::Request:   // Nested sessions vanish: (open..close)! = ε.
    case ExprKind::CloseMark: // Residuals of open/framing vanish likewise.
    case ExprKind::FrameOpen:
    case ExprKind::FrameClose:
      return Ctx.empty();
    case ExprKind::Var:
      return E;
    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      const Expr *Body = visit(M->body());
      return Body == M->body() ? E : Ctx.mu(M->var(), Body);
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      const Expr *Head = visit(S->head());
      const Expr *Tail = visit(S->tail());
      return Head == S->head() && Tail == S->tail() ? E
                                                    : Ctx.seq(Head, Tail);
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
  trace::Span Span("projection", "pipeline");
  Projector P(Ctx);
  return P.visit(E);
}

bool sus::contract::isContract(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
    return true;
  case ExprKind::Mu:
    return isContract(cast<MuExpr>(E)->body());
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    return isContract(S->head()) && isContract(S->tail());
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice: {
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      if (!isContract(B.Body))
        return false;
    return true;
  }
  case ExprKind::Event:
  case ExprKind::Request:
  case ExprKind::Framing:
  case ExprKind::CloseMark:
  case ExprKind::FrameOpen:
  case ExprKind::FrameClose:
    return false;
  }
  return false;
}
