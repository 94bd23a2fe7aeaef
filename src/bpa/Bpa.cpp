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
  // Keep sequences right-nested: (p·q)·r = p·(q·r). The left operand is
  // itself right-nested, so walk its spine once and re-cons it onto Rhs
  // from the back; every element is a non-sequence, so no call recurses.
  if (isa<SeqTerm>(Lhs)) {
    std::vector<const Term *> Spine;
    while (const auto *S = dyn_cast<SeqTerm>(Lhs)) {
      Spine.push_back(S->left());
      Lhs = S->right();
    }
    Rhs = seq(Lhs, Rhs);
    for (auto It = Spine.rbegin(); It != Spine.rend(); ++It)
      Rhs = seq(*It, Rhs);
    return Rhs;
  }
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
  // A sequence terminates iff every head on its right spine does: loop
  // along the spine, recursing only into heads and sums.
  while (const auto *S = dyn_cast<SeqTerm>(T)) {
    if (!canTerminate(Ctx, S->left()))
      return false;
    T = S->right();
  }
  switch (T->kind()) {
  case TermKind::Nil:
    return true;
  case TermKind::Action:
  case TermKind::Seq: // Never reached: the loop above consumed it.
    return false;
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
  // Along a sequence's right spine, each head's steps continue with the
  // rest of the chain, and the rest steps on its own only while every
  // head before it can terminate.
  while (const auto *S = dyn_cast<SeqTerm>(T)) {
    std::vector<BpaTransition> Left;
    deriveInto(Ctx, S->left(), Left, Fuel);
    for (BpaTransition &Tr : Left)
      Out.push_back({Tr.L, Ctx.seq(Tr.Target, S->right())});
    if (!canTerminate(Ctx, S->left()))
      return;
    T = S->right();
  }
  switch (T->kind()) {
  case TermKind::Nil:
  case TermKind::Seq: // Never reached: the loop above consumed it.
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
  case TermKind::Var: {
    const Term *Body = Ctx.definition(cast<VarTerm>(T)->name());
    if (!Body)
      return; // Undefined variable: stuck.
    deriveInto(Ctx, Body, Out, Fuel - 1);
    return;
  }
  }
}

/// Appends the rendering of \p T to \p Out, looping along sequence
/// spines and closing their parentheses at the end.
void printInto(const StringInterner &Interner, const Term *T,
               std::string &Out) {
  size_t Open = 0;
  while (const auto *S = dyn_cast<SeqTerm>(T)) {
    Out += "(";
    printInto(Interner, S->left(), Out);
    Out += " . ";
    T = S->right();
    ++Open;
  }
  switch (T->kind()) {
  case TermKind::Nil:
    Out += "0";
    break;
  case TermKind::Action:
    Out += cast<ActionTerm>(T)->label().str(Interner);
    break;
  case TermKind::Seq: // Never reached: the loop above consumed it.
    break;
  case TermKind::Sum: {
    const auto *S = cast<SumTerm>(T);
    Out += "(";
    printInto(Interner, S->left(), Out);
    Out += " + ";
    printInto(Interner, S->right(), Out);
    Out += ")";
    break;
  }
  case TermKind::Var:
    Out += Interner.text(cast<VarTerm>(T)->name());
    break;
  }
  Out.append(Open, ')');
}

} // namespace

std::vector<BpaTransition> sus::bpa::deriveBpa(BpaContext &Ctx,
                                               const Term *T) {
  std::vector<BpaTransition> Out;
  deriveInto(Ctx, T, Out, /*Fuel=*/64);
  return Out;
}

std::string sus::bpa::printTerm(const BpaContext &,
                                const StringInterner &Interner,
                                const Term *T) {
  std::string Out;
  printInto(Interner, T, Out);
  return Out;
}
