//===- validity/FrameRegularize.cpp - Framing regularization --------------===//

#include "validity/FrameRegularize.h"

#include "hist/Walk.h"
#include "support/Casting.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace sus;
using namespace sus::hist;
using namespace sus::validity;

namespace {

/// Active-policy context ordered set for use as part of a memo key.
using ActiveSet = std::set<PolicyRef>;

class Regularizer {
public:
  explicit Regularizer(HistContext &Ctx) : Ctx(Ctx) {}

  const Expr *visit(const Expr *E, const ActiveSet &Active) {
    return foldSpine(
        E, Memo[Active],
        [&](const Expr *X) { return compute(X, Active); },
        [this](const SeqExpr *, const Expr *Head, const Expr *Tail) {
          return Ctx.seq(Head, Tail);
        });
  }

private:
  const Expr *compute(const Expr *E, const ActiveSet &Active) {
    switch (E->kind()) {
    case ExprKind::Empty:
    case ExprKind::Var:
    case ExprKind::Event:
    case ExprKind::CloseMark:
    case ExprKind::Seq: // Never reached: foldSpine rebuilds sequences.
      return E;

    case ExprKind::FrameOpen: {
      // A bare ⌊ϕ marker re-opening an active policy is redundant; we keep
      // it (markers appear only in derivatives, not in source expressions).
      return E;
    }
    case ExprKind::FrameClose:
      return E;

    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      return Ctx.mu(M->var(), visit(M->body(), Active));
    }
    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      const auto *C = cast<ChoiceExpr>(E);
      std::vector<ChoiceBranch> Branches;
      Branches.reserve(C->numBranches());
      for (const ChoiceBranch &B : C->branches())
        Branches.push_back({B.Guard, visit(B.Body, Active)});
      return E->kind() == ExprKind::ExtChoice
                 ? Ctx.extChoice(std::move(Branches))
                 : Ctx.intChoice(std::move(Branches));
    }
    case ExprKind::Request: {
      const auto *R = cast<RequestExpr>(E);
      // The request's policy frames the whole session.
      if (!R->policy().isTrivial() && Active.count(R->policy())) {
        // Redundant session policy: keep the session but the framing it
        // induces is subsumed; we still need the open/close structure, so
        // requests are left intact (their policy is enforced by the outer
        // frame anyway).
        return Ctx.request(R->request(), R->policy(),
                           visit(R->body(), Active));
      }
      ActiveSet Inner = Active;
      if (!R->policy().isTrivial())
        Inner.insert(R->policy());
      return Ctx.request(R->request(), R->policy(), visit(R->body(), Inner));
    }
    case ExprKind::Framing: {
      const auto *F = cast<FramingExpr>(E);
      if (Active.count(F->policy()))
        return visit(F->body(), Active); // Redundant: drop the frame.
      ActiveSet Inner = Active;
      Inner.insert(F->policy());
      return Ctx.framing(F->policy(), visit(F->body(), Inner));
    }
    }
    return E;
  }

  HistContext &Ctx;
  /// Results by active-policy context, then by node.
  std::map<ActiveSet, std::unordered_map<const Expr *, const Expr *>> Memo;
};

void nesting(const Expr *E, std::map<PolicyRef, unsigned> &Depth,
             unsigned &Max) {
  E = forEachHead(E, [&](const SeqExpr *S) { nesting(S->head(), Depth, Max); });
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
  case ExprKind::Event:
  case ExprKind::CloseMark:
  case ExprKind::FrameOpen:
  case ExprKind::FrameClose:
  case ExprKind::Seq: // Never reached: forEachHead walked the spine.
    return;
  case ExprKind::Mu:
    nesting(cast<MuExpr>(E)->body(), Depth, Max);
    return;
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      nesting(B.Body, Depth, Max);
    return;
  case ExprKind::Request:
    nesting(cast<RequestExpr>(E)->body(), Depth, Max);
    return;
  case ExprKind::Framing: {
    const auto *F = cast<FramingExpr>(E);
    unsigned &D = Depth[F->policy()];
    ++D;
    Max = std::max(Max, D);
    nesting(F->body(), Depth, Max);
    --D;
    return;
  }
  }
}

} // namespace

const Expr *sus::validity::regularizeFramings(HistContext &Ctx,
                                              const Expr *E) {
  Regularizer R(Ctx);
  return R.visit(E, {});
}

unsigned sus::validity::maxFramingNesting(const Expr *E) {
  std::map<PolicyRef, unsigned> Depth;
  unsigned Max = 0;
  nesting(E, Depth, Max);
  return Max;
}
