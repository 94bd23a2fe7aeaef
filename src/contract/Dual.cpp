//===- contract/Dual.cpp - Dual contracts ----------------------------------===//

#include "contract/Dual.h"

#include "hist/Walk.h"
#include "support/Casting.h"

#include <cassert>
#include <unordered_map>

using namespace sus;
using namespace sus::hist;
using namespace sus::contract;

namespace {

class Dualizer {
public:
  explicit Dualizer(HistContext &Ctx) : Ctx(Ctx) {}

  const Expr *visit(const Expr *E) {
    return foldSpine(
        E, Memo, [this](const Expr *X) { return compute(X); },
        [this](const SeqExpr *, const Expr *Head, const Expr *Tail) {
          return Ctx.seq(Head, Tail);
        });
  }

private:
  const Expr *compute(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Empty:
    case ExprKind::Var:
    case ExprKind::Seq: // Never reached: foldSpine rebuilds sequences.
      return E;
    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      return Ctx.mu(M->var(), visit(M->body()));
    }
    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      const auto *C = cast<ChoiceExpr>(E);
      std::vector<ChoiceBranch> Branches;
      Branches.reserve(C->numBranches());
      for (const ChoiceBranch &B : C->branches())
        Branches.push_back({B.Guard.complement(), visit(B.Body)});
      // Polarities flip: Σ becomes ⊕ and vice versa.
      return E->kind() == ExprKind::ExtChoice
                 ? Ctx.intChoice(std::move(Branches))
                 : Ctx.extChoice(std::move(Branches));
    }
    case ExprKind::Event:
    case ExprKind::Request:
    case ExprKind::Framing:
    case ExprKind::CloseMark:
    case ExprKind::FrameOpen:
    case ExprKind::FrameClose:
      assert(false && "dualContract requires a contract; project first");
      return E;
    }
    return E;
  }

  HistContext &Ctx;
  std::unordered_map<const Expr *, const Expr *> Memo;
};

} // namespace

const Expr *sus::contract::dualContract(HistContext &Ctx, const Expr *E) {
  Dualizer D(Ctx);
  return D.visit(E);
}
