//===- bpa/Bpa.cpp - Basic Process Algebra terms ---------------------------===//

#include "bpa/Bpa.h"

#include <cassert>

using namespace sus;
using namespace sus::bpa;

const Term *BpaContext::nil() {
  std::vector<uint64_t> Key = {static_cast<uint64_t>(TermKind::Nil)};
  auto It = Unique.find(Key);
  if (It != Unique.end())
    return It->second;
  const Term *T = Terms.create<NilTerm>();
  Unique.emplace(std::move(Key), T);
  return T;
}

const Term *BpaContext::action(hist::Label L) {
  std::vector<uint64_t> Key = {static_cast<uint64_t>(TermKind::Action),
                               L.hash()};
  // Label hashes may collide in principle; disambiguate by a linear scan
  // over the bucket on a miss of the exact label.
  auto It = Unique.find(Key);
  if (It != Unique.end()) {
    const auto *A = cast<ActionTerm>(It->second);
    if (A->label() == L)
      return A;
    // Extremely unlikely collision: extend the key deterministically.
    Key.push_back(0x9e3779b9);
    It = Unique.find(Key);
    if (It != Unique.end())
      return It->second;
  }
  const Term *T = Terms.create<ActionTerm>(std::move(L));
  Unique.emplace(std::move(Key), T);
  return T;
}

const Term *BpaContext::seq(const Term *Lhs, const Term *Rhs) {
  assert(Lhs && Rhs && "seq of null term");
  if (Lhs->isNil())
    return Rhs;
  if (Rhs->isNil())
    return Lhs;
  if (const auto *S = dyn_cast<SeqTerm>(Lhs))
    return seq(S->left(), seq(S->right(), Rhs));
  std::vector<uint64_t> Key = {static_cast<uint64_t>(TermKind::Seq),
                               reinterpret_cast<uint64_t>(Lhs),
                               reinterpret_cast<uint64_t>(Rhs)};
  auto It = Unique.find(Key);
  if (It != Unique.end())
    return It->second;
  const Term *T = Terms.create<SeqTerm>(Lhs, Rhs);
  Unique.emplace(std::move(Key), T);
  return T;
}

const Term *BpaContext::sum(const Term *Lhs, const Term *Rhs) {
  assert(Lhs && Rhs && "sum of null term");
  if (Lhs == Rhs)
    return Lhs;
  // Canonical order for commutativity.
  if (Rhs < Lhs)
    std::swap(Lhs, Rhs);
  std::vector<uint64_t> Key = {static_cast<uint64_t>(TermKind::Sum),
                               reinterpret_cast<uint64_t>(Lhs),
                               reinterpret_cast<uint64_t>(Rhs)};
  auto It = Unique.find(Key);
  if (It != Unique.end())
    return It->second;
  const Term *T = Terms.create<SumTerm>(Lhs, Rhs);
  Unique.emplace(std::move(Key), T);
  return T;
}

const Term *BpaContext::var(Symbol Name) {
  assert(Name.isValid() && "variable requires a name");
  std::vector<uint64_t> Key = {static_cast<uint64_t>(TermKind::Var),
                               Name.id()};
  auto It = Unique.find(Key);
  if (It != Unique.end())
    return It->second;
  const Term *T = Terms.create<VarTerm>(Name);
  Unique.emplace(std::move(Key), T);
  return T;
}

void BpaContext::define(Symbol Name, const Term *Body) {
  Defs.insert_or_assign(Name, Body);
}

const Term *BpaContext::definition(Symbol Name) const {
  auto It = Defs.find(Name);
  return It == Defs.end() ? nullptr : It->second;
}

Symbol BpaContext::freshVar(StringInterner &Interner) {
  return Interner.intern("X" + std::to_string(FreshCounter++));
}

bool sus::bpa::canTerminate(const BpaContext &Ctx, const Term *T) {
  switch (T->kind()) {
  case TermKind::Nil:
    return true;
  case TermKind::Action:
    return false;
  case TermKind::Seq: {
    const auto *S = cast<SeqTerm>(T);
    return canTerminate(Ctx, S->left()) && canTerminate(Ctx, S->right());
  }
  case TermKind::Sum: {
    const auto *S = cast<SumTerm>(T);
    return canTerminate(Ctx, S->left()) || canTerminate(Ctx, S->right());
  }
  case TermKind::Var:
    // Guarded definitions never terminate silently (they must act first);
    // we conservatively say no. Recursion in our fragment is guarded.
    return false;
  }
  return false;
}

namespace {

void deriveInto(BpaContext &Ctx, const Term *T,
                std::vector<BpaTransition> &Out, unsigned Fuel) {
  if (Fuel == 0)
    return;
  switch (T->kind()) {
  case TermKind::Nil:
    return;
  case TermKind::Action:
    Out.push_back({cast<ActionTerm>(T)->label(), Ctx.nil()});
    return;
  case TermKind::Sum: {
    const auto *S = cast<SumTerm>(T);
    deriveInto(Ctx, S->left(), Out, Fuel);
    deriveInto(Ctx, S->right(), Out, Fuel);
    return;
  }
  case TermKind::Seq: {
    const auto *S = cast<SeqTerm>(T);
    std::vector<BpaTransition> Left;
    deriveInto(Ctx, S->left(), Left, Fuel);
    for (BpaTransition &Tr : Left)
      Out.push_back({Tr.L, Ctx.seq(Tr.Target, S->right())});
    if (canTerminate(Ctx, S->left()))
      deriveInto(Ctx, S->right(), Out, Fuel);
    return;
  }
  case TermKind::Var: {
    const Term *Body = Ctx.definition(cast<VarTerm>(T)->name());
    if (!Body)
      return; // Undefined variable: stuck.
    deriveInto(Ctx, Body, Out, Fuel - 1);
    return;
  }
  }
}

} // namespace

std::vector<BpaTransition> sus::bpa::deriveBpa(BpaContext &Ctx,
                                               const Term *T) {
  std::vector<BpaTransition> Out;
  deriveInto(Ctx, T, Out, /*Fuel=*/64);
  return Out;
}

std::string sus::bpa::printTerm(const BpaContext &Ctx,
                                const StringInterner &Interner,
                                const Term *T) {
  switch (T->kind()) {
  case TermKind::Nil:
    return "0";
  case TermKind::Action:
    return cast<ActionTerm>(T)->label().str(Interner);
  case TermKind::Seq: {
    const auto *S = cast<SeqTerm>(T);
    return "(" + printTerm(Ctx, Interner, S->left()) + " . " +
           printTerm(Ctx, Interner, S->right()) + ")";
  }
  case TermKind::Sum: {
    const auto *S = cast<SumTerm>(T);
    return "(" + printTerm(Ctx, Interner, S->left()) + " + " +
           printTerm(Ctx, Interner, S->right()) + ")";
  }
  case TermKind::Var:
    return std::string(Interner.text(cast<VarTerm>(T)->name()));
  }
  return "?";
}
