//===- hist/HistContext.cpp - Hash-consing factory for Expr --------------===//

#include "hist/HistContext.h"

#include "support/HashUtil.h"

#include <algorithm>
#include <cassert>

using namespace sus;
using namespace sus::hist;

//===----------------------------------------------------------------------===//
// Profile encoding
//===----------------------------------------------------------------------===//

namespace {

uint64_t encodePointer(const Expr *E) {
  return reinterpret_cast<uint64_t>(E);
}

void encodeValue(std::vector<uint64_t> &P, const Value &V) {
  P.push_back(static_cast<uint64_t>(V.kind()));
  switch (V.kind()) {
  case Value::Kind::None:
    break;
  case Value::Kind::Int:
    P.push_back(static_cast<uint64_t>(V.asInt()));
    break;
  case Value::Kind::Name:
    P.push_back(V.asName().id());
    break;
  }
}

void encodePolicy(std::vector<uint64_t> &P, const PolicyRef &Policy) {
  P.push_back(Policy.Name.isValid() ? Policy.Name.id() + 1 : 0);
  P.push_back(Policy.Args.size());
  for (const auto &Arg : Policy.Args) {
    P.push_back(Arg.size());
    for (const Value &V : Arg)
      encodeValue(P, V);
  }
}

} // namespace

const Expr *HistContext::lookup(const Profile &P) const {
  auto It = Unique.find(P);
  return It == Unique.end() ? nullptr : It->second;
}

void HistContext::remember(Profile P, const Expr *E) {
  Unique.emplace(std::move(P), E);
}

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

const Expr *HistContext::empty() {
  Profile P = {static_cast<uint64_t>(ExprKind::Empty)};
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E = Nodes.create<EmptyExpr>(WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::var(Symbol Name) {
  assert(Name.isValid() && "variable requires a name");
  Profile P = {static_cast<uint64_t>(ExprKind::Var), Name.id()};
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E = Nodes.create<VarExpr>(Name, WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::mu(Symbol Var, const Expr *Body) {
  assert(Var.isValid() && "mu requires a variable name");
  if (!freeVars(Body).count(Var))
    return Body;
  Profile P = {static_cast<uint64_t>(ExprKind::Mu), Var.id(),
               encodePointer(Body)};
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E = Nodes.create<MuExpr>(Var, Body, WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::event(Event Ev) {
  assert(Ev.Name.isValid() && "event requires a name");
  Profile P = {static_cast<uint64_t>(ExprKind::Event), Ev.Name.id()};
  encodeValue(P, Ev.Arg);
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E = Nodes.create<EventExpr>(Ev, WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::seq(const Expr *Head, const Expr *Tail) {
  assert(Head && Tail && "seq of null expression");
  // Structural congruence: ε·H ≡ H ≡ H·ε.
  if (Head->isEmpty())
    return Tail;
  if (Tail->isEmpty())
    return Head;
  // Keep sequences right-nested: (A·B)·C = A·(B·C).
  if (const auto *HeadSeq = dyn_cast<SeqExpr>(Head))
    return seq(HeadSeq->head(), seq(HeadSeq->tail(), Tail));

  Profile P = {static_cast<uint64_t>(ExprKind::Seq), encodePointer(Head),
               encodePointer(Tail)};
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E = Nodes.create<SeqExpr>(Head, Tail, WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::seq(const std::vector<const Expr *> &Parts) {
  const Expr *Result = empty();
  for (auto It = Parts.rbegin(); It != Parts.rend(); ++It)
    Result = seq(*It, Result);
  return Result;
}

const Expr *HistContext::makeChoice(ExprKind Kind,
                                    std::vector<ChoiceBranch> Branches) {
  assert(!Branches.empty() && "choice requires at least one branch");
  // Canonicalize: sort by (guard, body identity) and drop duplicates.
  std::sort(Branches.begin(), Branches.end(),
            [](const ChoiceBranch &A, const ChoiceBranch &B) {
              if (A.Guard != B.Guard)
                return A.Guard < B.Guard;
              return A.Body < B.Body;
            });
  Branches.erase(std::unique(Branches.begin(), Branches.end()),
                 Branches.end());

  Profile P = {static_cast<uint64_t>(Kind), Branches.size()};
  for (const ChoiceBranch &B : Branches) {
    P.push_back(B.Guard.Channel.id());
    P.push_back(static_cast<uint64_t>(B.Guard.Pol));
    P.push_back(encodePointer(B.Body));
  }
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E =
      Kind == ExprKind::ExtChoice
          ? static_cast<const Expr *>(Nodes.create<ExtChoiceExpr>(
                std::move(Branches), WordsHash()(P)))
          : static_cast<const Expr *>(Nodes.create<IntChoiceExpr>(
                std::move(Branches), WordsHash()(P)));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::extChoice(std::vector<ChoiceBranch> Branches) {
#ifndef NDEBUG
  for (const ChoiceBranch &B : Branches)
    assert(B.Guard.isInput() && "external choice guards must be inputs");
#endif
  return makeChoice(ExprKind::ExtChoice, std::move(Branches));
}

const Expr *HistContext::intChoice(std::vector<ChoiceBranch> Branches) {
#ifndef NDEBUG
  for (const ChoiceBranch &B : Branches)
    assert(B.Guard.isOutput() && "internal choice guards must be outputs");
#endif
  return makeChoice(ExprKind::IntChoice, std::move(Branches));
}

const Expr *HistContext::prefix(CommAction Guard, const Expr *Body) {
  std::vector<ChoiceBranch> Branches = {{Guard, Body}};
  return Guard.isInput() ? extChoice(std::move(Branches))
                         : intChoice(std::move(Branches));
}

const Expr *HistContext::request(RequestId Request, PolicyRef Policy,
                                 const Expr *Body) {
  Profile P = {static_cast<uint64_t>(ExprKind::Request), Request};
  encodePolicy(P, Policy);
  P.push_back(encodePointer(Body));
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E = Nodes.create<RequestExpr>(Request, std::move(Policy), Body,
                                            WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::framing(PolicyRef Policy, const Expr *Body) {
  Profile P = {static_cast<uint64_t>(ExprKind::Framing)};
  encodePolicy(P, Policy);
  P.push_back(encodePointer(Body));
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E =
      Nodes.create<FramingExpr>(std::move(Policy), Body, WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::closeMark(RequestId Request, PolicyRef Policy) {
  Profile P = {static_cast<uint64_t>(ExprKind::CloseMark), Request};
  encodePolicy(P, Policy);
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E = Nodes.create<CloseMarkExpr>(Request, std::move(Policy),
                                              WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::frameOpen(PolicyRef Policy) {
  Profile P = {static_cast<uint64_t>(ExprKind::FrameOpen)};
  encodePolicy(P, Policy);
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E =
      Nodes.create<FrameOpenExpr>(std::move(Policy), WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

const Expr *HistContext::frameClose(PolicyRef Policy) {
  Profile P = {static_cast<uint64_t>(ExprKind::FrameClose)};
  encodePolicy(P, Policy);
  if (const Expr *E = lookup(P))
    return E;
  const Expr *E =
      Nodes.create<FrameCloseExpr>(std::move(Policy), WordsHash()(P));
  remember(std::move(P), E);
  return E;
}

//===----------------------------------------------------------------------===//
// Substitution and free variables
//===----------------------------------------------------------------------===//

namespace {

/// Recursive substitution with per-call memoization; shadowing µs stop it.
class Substituter {
public:
  Substituter(HistContext &Ctx, Symbol Var, const Expr *Replacement)
      : Ctx(Ctx), Var(Var), Replacement(Replacement) {}

  const Expr *visit(const Expr *E) {
    auto It = Memo.find(E);
    if (It != Memo.end())
      return It->second;
    const Expr *Result = compute(E);
    Memo.emplace(E, Result);
    return Result;
  }

private:
  const Expr *compute(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Empty:
    case ExprKind::Event:
    case ExprKind::CloseMark:
    case ExprKind::FrameOpen:
    case ExprKind::FrameClose:
      return E;
    case ExprKind::Var:
      return cast<VarExpr>(E)->name() == Var ? Replacement : E;
    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      if (M->var() == Var)
        return E; // Shadowed.
      return Ctx.mu(M->var(), visit(M->body()));
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      return Ctx.seq(visit(S->head()), visit(S->tail()));
    }
    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      const auto *C = cast<ChoiceExpr>(E);
      std::vector<ChoiceBranch> Branches;
      Branches.reserve(C->numBranches());
      for (const ChoiceBranch &B : C->branches())
        Branches.push_back({B.Guard, visit(B.Body)});
      return E->kind() == ExprKind::ExtChoice
                 ? Ctx.extChoice(std::move(Branches))
                 : Ctx.intChoice(std::move(Branches));
    }
    case ExprKind::Request: {
      const auto *R = cast<RequestExpr>(E);
      return Ctx.request(R->request(), R->policy(), visit(R->body()));
    }
    case ExprKind::Framing: {
      const auto *F = cast<FramingExpr>(E);
      return Ctx.framing(F->policy(), visit(F->body()));
    }
    }
    assert(false && "unknown expression kind");
    return E;
  }

  HistContext &Ctx;
  Symbol Var;
  const Expr *Replacement;
  std::unordered_map<const Expr *, const Expr *> Memo;
};

void collectFreeVars(const Expr *E, std::set<Symbol> &Bound,
                     std::set<Symbol> &Free) {
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Event:
  case ExprKind::CloseMark:
  case ExprKind::FrameOpen:
  case ExprKind::FrameClose:
    return;
  case ExprKind::Var: {
    Symbol Name = cast<VarExpr>(E)->name();
    if (!Bound.count(Name))
      Free.insert(Name);
    return;
  }
  case ExprKind::Mu: {
    const auto *M = cast<MuExpr>(E);
    bool Inserted = Bound.insert(M->var()).second;
    collectFreeVars(M->body(), Bound, Free);
    if (Inserted)
      Bound.erase(M->var());
    return;
  }
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    collectFreeVars(S->head(), Bound, Free);
    collectFreeVars(S->tail(), Bound, Free);
    return;
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice: {
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      collectFreeVars(B.Body, Bound, Free);
    return;
  }
  case ExprKind::Request:
    collectFreeVars(cast<RequestExpr>(E)->body(), Bound, Free);
    return;
  case ExprKind::Framing:
    collectFreeVars(cast<FramingExpr>(E)->body(), Bound, Free);
    return;
  }
}

} // namespace

const Expr *HistContext::substitute(const Expr *E, Symbol Var,
                                    const Expr *Replacement) {
  Substituter S(*this, Var, Replacement);
  return S.visit(E);
}

const Expr *HistContext::unfold(const MuExpr *Mu) {
  return substitute(Mu->body(), Mu->var(), Mu);
}

std::set<Symbol> HistContext::freeVars(const Expr *E) {
  std::set<Symbol> Bound, Free;
  collectFreeVars(E, Bound, Free);
  return Free;
}
