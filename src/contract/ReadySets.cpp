//===- contract/ReadySets.cpp - Observable ready sets (Def. 3) -----------===//

#include "contract/ReadySets.h"

#include "hist/Walk.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>

using namespace sus;
using namespace sus::hist;
using namespace sus::contract;

namespace {

void dedupe(std::vector<ReadySet> &Sets) {
  std::sort(Sets.begin(), Sets.end());
  Sets.erase(std::unique(Sets.begin(), Sets.end()), Sets.end());
}

std::vector<ReadySet> compute(const Expr *E);

/// The ready sets of a term that is not a sequence.
std::vector<ReadySet> termSets(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
    return {ReadySet{}};

  case ExprKind::IntChoice: {
    // One singleton ready set per output branch: the sender decides.
    std::vector<ReadySet> Sets;
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      Sets.push_back(ReadySet{B.Guard});
    dedupe(Sets);
    return Sets;
  }

  case ExprKind::ExtChoice: {
    // One combined ready set: all inputs are available at once.
    ReadySet S;
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      S.insert(B.Guard);
    return {std::move(S)};
  }

  case ExprKind::Mu:
    return compute(cast<MuExpr>(E)->body());

  case ExprKind::Seq:
    return compute(E);

  case ExprKind::Event:
  case ExprKind::Request:
  case ExprKind::Framing:
  case ExprKind::CloseMark:
  case ExprKind::FrameOpen:
  case ExprKind::FrameClose:
    assert(false && "ready sets are defined on contracts; project first");
    return {ReadySet{}};
  }
  return {ReadySet{}};
}

/// Along a `;` spine each head contributes its non-empty ready sets, and
/// the next term is reached only while the heads so far may terminate.
std::vector<ReadySet> compute(const Expr *E) {
  if (!isa<SeqExpr>(E))
    return termSets(E);
  std::vector<ReadySet> Result;
  E = forEachHead(E, [&](const SeqExpr *Sq) {
    bool HeadNullable = false;
    for (ReadySet &S : termSets(Sq->head())) {
      if (S.empty())
        HeadNullable = true;
      else
        Result.push_back(std::move(S));
    }
    return HeadNullable;
  });
  if (!isa<SeqExpr>(E)) // Every head may terminate: the last term is reached.
    for (ReadySet &S : termSets(E))
      Result.push_back(std::move(S));
  dedupe(Result);
  return Result;
}

} // namespace

std::vector<ReadySet> sus::contract::readySets(const Expr *E) {
  return compute(E);
}

ReadySet sus::contract::complementSet(const ReadySet &S) {
  ReadySet Out;
  for (const CommAction &A : S)
    Out.insert(A.complement());
  return Out;
}

bool sus::contract::canSynchronize(const ReadySet &C, const ReadySet &S) {
  for (const CommAction &A : C)
    if (S.count(A.complement()))
      return true;
  return false;
}
