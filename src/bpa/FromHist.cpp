//===- bpa/FromHist.cpp - Rendering history expressions as BPA ------------===//

#include "bpa/FromHist.h"

#include "hist/Walk.h"
#include "support/Casting.h"

#include <deque>
#include <map>
#include <unordered_map>

using namespace sus;
using namespace sus::bpa;
using namespace sus::hist;

namespace {

class Translator {
public:
  Translator(BpaContext &Bpa, HistContext &Ctx) : Bpa(Bpa), Ctx(Ctx) {}

  const Term *visit(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Empty:
      return Bpa.nil();
    case ExprKind::Var: {
      auto It = VarMap.find(cast<VarExpr>(E)->name());
      // Free history variables map to an undefined (stuck) BPA variable.
      if (It == VarMap.end())
        return Bpa.var(cast<VarExpr>(E)->name());
      return Bpa.var(It->second);
    }
    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      Symbol X = Bpa.freshVar(Ctx.interner());
      Symbol Saved;
      bool HadOld = false;
      auto It = VarMap.find(M->var());
      if (It != VarMap.end()) {
        Saved = It->second;
        HadOld = true;
      }
      VarMap[M->var()] = X;
      const Term *Body = visit(M->body());
      if (HadOld)
        VarMap[M->var()] = Saved;
      else
        VarMap.erase(M->var());
      Bpa.define(X, Body);
      return Bpa.var(X);
    }
    case ExprKind::Event:
      return Bpa.action(Label::event(cast<EventExpr>(E)->event()));
    case ExprKind::Seq: {
      // Translated from the back, the last term first, in the order the
      // right-nested BPA chain is built.
      std::vector<const Expr *> Heads;
      const Expr *Last = forEachHead(
          E, [&](const SeqExpr *S) { Heads.push_back(S->head()); });
      const Term *Result = visit(Last);
      for (auto It = Heads.rbegin(); It != Heads.rend(); ++It)
        Result = Bpa.seq(visit(*It), Result);
      return Result;
    }
    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      const auto *C = cast<ChoiceExpr>(E);
      const Term *Acc = nullptr;
      for (const ChoiceBranch &B : C->branches()) {
        const Term *Guarded =
            Bpa.seq(Bpa.action(Label::comm(B.Guard)), visit(B.Body));
        Acc = Acc ? Bpa.sum(Acc, Guarded) : Guarded;
      }
      return Acc ? Acc : Bpa.nil();
    }
    case ExprKind::Request: {
      const auto *R = cast<RequestExpr>(E);
      return Bpa.seq(
          Bpa.action(Label::open(R->request(), R->policy())),
          Bpa.seq(visit(R->body()),
                  Bpa.action(Label::close(R->request(), R->policy()))));
    }
    case ExprKind::Framing: {
      const auto *F = cast<FramingExpr>(E);
      return Bpa.seq(
          Bpa.action(Label::frameOpen(F->policy())),
          Bpa.seq(visit(F->body()),
                  Bpa.action(Label::frameClose(F->policy()))));
    }
    case ExprKind::CloseMark: {
      const auto *C = cast<CloseMarkExpr>(E);
      return Bpa.action(Label::close(C->request(), C->policy()));
    }
    case ExprKind::FrameOpen:
      return Bpa.action(
          Label::frameOpen(cast<FrameOpenExpr>(E)->policy()));
    case ExprKind::FrameClose:
      return Bpa.action(
          Label::frameClose(cast<FrameCloseExpr>(E)->policy()));
    }
    return Bpa.nil();
  }

private:
  BpaContext &Bpa;
  HistContext &Ctx;
  std::map<Symbol, Symbol> VarMap;
};

} // namespace

const Term *sus::bpa::fromHist(BpaContext &Bpa, HistContext &Ctx,
                               const Expr *E) {
  Translator T(Bpa, Ctx);
  return T.visit(E);
}

BpaLts sus::bpa::toLts(BpaContext &Bpa, const Term *Root, size_t MaxStates) {
  BpaLts Lts;
  std::unordered_map<const Term *, uint32_t> Index;
  std::deque<const Term *> Work;

  auto Intern = [&](const Term *T) -> uint32_t {
    auto It = Index.find(T);
    if (It != Index.end())
      return It->second;
    uint32_t I = static_cast<uint32_t>(Lts.States.size());
    Lts.States.push_back(T);
    Lts.Edges.emplace_back();
    Index.emplace(T, I);
    Work.push_back(T);
    return I;
  };

  Intern(Root);
  while (!Work.empty()) {
    const Term *T = Work.front();
    Work.pop_front();
    uint32_t From = Index.at(T);
    for (BpaTransition &Tr : deriveBpa(Bpa, T)) {
      if (Lts.States.size() >= MaxStates && !Index.count(Tr.Target)) {
        Lts.Regular = false;
        continue;
      }
      uint32_t To = Intern(Tr.Target);
      Lts.Edges[From].push_back({Tr.L, To});
    }
  }
  return Lts;
}
