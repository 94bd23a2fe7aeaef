//===- policy/Compile.cpp - Policies as classical DFAs ---------------------===//

#include "policy/Compile.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include "automata/Ops.h"
#include "support/Casting.h"
#include "support/HashUtil.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

using namespace sus;
using namespace sus::hist;
using namespace sus::policy;

automata::SymbolCode
CompiledPolicy::codeOf(const hist::Event &Ev) const {
  for (size_t I = 0; I < Universe.size(); ++I)
    if (Universe[I] == Ev)
      return static_cast<automata::SymbolCode>(I);
  return ~0u;
}

CompiledPolicy sus::policy::compilePolicy(const PolicyInstance &Instance,
                                          std::vector<hist::Event> Universe) {
  trace::Span Span("policy.compile", "pipeline");
  Span.count("universe", static_cast<int64_t>(Universe.size()));
  static metrics::Counter &Compiles = metrics::counter("policy.compiles");
  Compiles.add();
  // Deduplicate the universe, preserving first occurrence.
  std::vector<hist::Event> Unique;
  for (const hist::Event &Ev : Universe)
    if (std::find(Unique.begin(), Unique.end(), Ev) == Unique.end())
      Unique.push_back(Ev);

  CompiledPolicy Result;
  Result.Universe = std::move(Unique);

  // Hashed interning; state numbering is the BFS discovery order (a
  // property of the Intern call sequence, not of the map's ordering).
  std::unordered_map<std::vector<UStateId>, automata::StateId, WordsHash>
      Index;
  std::deque<std::vector<UStateId>> Work;

  auto Offending = [&](const std::vector<UStateId> &Set) {
    for (UStateId S : Set)
      if (Instance.shape().isOffending(S))
        return true;
    return false;
  };

  auto Intern = [&](std::vector<UStateId> Set) -> automata::StateId {
    auto It = Index.find(Set);
    if (It != Index.end())
      return It->second;
    automata::StateId Id = Result.Automaton.addState(Offending(Set));
    Index.emplace(Set, Id);
    Work.push_back(std::move(Set));
    return Id;
  };

  Result.Automaton.setStart(Intern({Instance.shape().start()}));
  while (!Work.empty()) {
    std::vector<UStateId> Set = Work.front();
    Work.pop_front();
    automata::StateId From = Index.at(Set);
    for (size_t Code = 0; Code < Result.Universe.size(); ++Code) {
      std::vector<UStateId> Next;
      for (UStateId S : Set)
        for (UStateId T : Instance.step(S, Result.Universe[Code]))
          Next.push_back(T);
      std::sort(Next.begin(), Next.end());
      Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
      automata::StateId To = Intern(std::move(Next));
      Result.Automaton.setEdge(From,
                               static_cast<automata::SymbolCode>(Code), To);
    }
  }
  return Result;
}

bool sus::policy::equivalentOn(const PolicyInstance &A,
                               const PolicyInstance &B,
                               const std::vector<hist::Event> &Universe) {
  CompiledPolicy CA = compilePolicy(A, Universe);
  CompiledPolicy CB = compilePolicy(B, Universe);
  // Both are compiled over the same (deduplicated) universe in the same
  // order, so symbol codes agree.
  return automata::equivalent(CA.Automaton, CB.Automaton);
}

namespace {

void collectEvents(const Expr *E, std::vector<hist::Event> &Out) {
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
  case ExprKind::CloseMark:
  case ExprKind::FrameOpen:
  case ExprKind::FrameClose:
    return;
  case ExprKind::Event: {
    const hist::Event &Ev = cast<EventExpr>(E)->event();
    if (std::find(Out.begin(), Out.end(), Ev) == Out.end())
      Out.push_back(Ev);
    return;
  }
  case ExprKind::Mu:
    collectEvents(cast<MuExpr>(E)->body(), Out);
    return;
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    collectEvents(S->head(), Out);
    collectEvents(S->tail(), Out);
    return;
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      collectEvents(B.Body, Out);
    return;
  case ExprKind::Request:
    collectEvents(cast<RequestExpr>(E)->body(), Out);
    return;
  case ExprKind::Framing:
    collectEvents(cast<FramingExpr>(E)->body(), Out);
    return;
  }
}

void collectRefs(const Expr *E, std::vector<PolicyRef> &Out) {
  auto Add = [&Out](const PolicyRef &Ref) {
    if (!Ref.isTrivial() &&
        std::find(Out.begin(), Out.end(), Ref) == Out.end())
      Out.push_back(Ref);
  };
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
  case ExprKind::Event:
    return;
  case ExprKind::CloseMark:
    Add(cast<CloseMarkExpr>(E)->policy());
    return;
  case ExprKind::FrameOpen:
    Add(cast<FrameOpenExpr>(E)->policy());
    return;
  case ExprKind::FrameClose:
    Add(cast<FrameCloseExpr>(E)->policy());
    return;
  case ExprKind::Mu:
    collectRefs(cast<MuExpr>(E)->body(), Out);
    return;
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    collectRefs(S->head(), Out);
    collectRefs(S->tail(), Out);
    return;
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      collectRefs(B.Body, Out);
    return;
  case ExprKind::Request: {
    const auto *R = cast<RequestExpr>(E);
    Add(R->policy());
    collectRefs(R->body(), Out);
    return;
  }
  case ExprKind::Framing: {
    const auto *F = cast<FramingExpr>(E);
    Add(F->policy());
    collectRefs(F->body(), Out);
    return;
  }
  }
}

} // namespace

std::vector<hist::Event> sus::policy::eventUniverse(const Expr *E) {
  std::vector<hist::Event> Out;
  collectEvents(E, Out);
  return Out;
}

std::vector<hist::Event>
sus::policy::eventUniverse(const std::vector<const Expr *> &Exprs) {
  std::vector<hist::Event> Out;
  for (const Expr *E : Exprs)
    collectEvents(E, Out);
  return Out;
}

std::vector<PolicyRef>
sus::policy::policyRefs(const std::vector<const Expr *> &Exprs) {
  std::vector<PolicyRef> Out;
  for (const Expr *E : Exprs)
    collectRefs(E, Out);
  return Out;
}
