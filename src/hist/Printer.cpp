//===- hist/Printer.cpp - Rendering history expressions ------------------===//

#include "hist/Printer.h"

#include "hist/Walk.h"
#include "support/Casting.h"
#include "support/DotWriter.h"

#include <cassert>
#include <sstream>

using namespace sus;
using namespace sus::hist;

namespace {

/// Precedence levels, loosest to tightest.
enum Level : int {
  LevelExpr = 0,   // mu
  LevelChoice = 1, // + / <+>
  LevelSeq = 2,    // ;
  LevelPrefix = 3, // a? . H
  LevelPrimary = 4,
};

int levelOf(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Mu:
    return LevelExpr;
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    return cast<ChoiceExpr>(E)->numBranches() > 1 ? LevelChoice
                                                  : LevelPrefix;
  case ExprKind::Seq:
    return LevelSeq;
  default:
    return LevelPrimary;
  }
}

std::string printValue(const StringInterner &Interner, const Value &V) {
  return V.str(Interner);
}

std::string printPolicyRef(const StringInterner &Interner,
                           const PolicyRef &P) {
  assert(!P.isTrivial() && "trivial policy has no surface form");
  std::string Out(Interner.text(P.Name));
  if (P.Args.empty())
    return Out;
  Out += "(";
  for (size_t I = 0; I < P.Args.size(); ++I) {
    if (I != 0)
      Out += ",";
    const auto &Arg = P.Args[I];
    if (Arg.size() == 1 && !Arg.front().isNone()) {
      Out += printValue(Interner, Arg.front());
      continue;
    }
    Out += "{";
    for (size_t J = 0; J < Arg.size(); ++J) {
      if (J != 0)
        Out += ",";
      Out += printValue(Interner, Arg[J]);
    }
    Out += "}";
  }
  Out += ")";
  return Out;
}

class ExprPrinter {
public:
  explicit ExprPrinter(const HistContext &Ctx) : Interner(Ctx.interner()) {}

  void print(const Expr *E, int MinLevel, std::string &Out) {
    bool Parens = levelOf(E) < MinLevel;
    if (Parens)
      Out += "(";
    printBare(E, Out);
    if (Parens)
      Out += ")";
  }

private:
  void printBare(const Expr *E, std::string &Out) {
    switch (E->kind()) {
    case ExprKind::Empty:
      Out += "eps";
      return;
    case ExprKind::Var:
      Out += Interner.text(cast<VarExpr>(E)->name());
      return;
    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      Out += "mu ";
      Out += Interner.text(M->var());
      Out += " . ";
      print(M->body(), LevelExpr, Out);
      return;
    }
    case ExprKind::Event: {
      const Event &Ev = cast<EventExpr>(E)->event();
      Out += "%";
      Out += Interner.text(Ev.Name);
      if (!Ev.Arg.isNone()) {
        Out += "(";
        Out += printValue(Interner, Ev.Arg);
        Out += ")";
      }
      return;
    }
    case ExprKind::Seq: {
      // Sequences are right-nested; print the last term at seq level so
      // chains render flat.
      const Expr *Last = forEachHead(E, [&](const SeqExpr *S) {
        print(S->head(), LevelPrefix, Out);
        Out += "; ";
      });
      print(Last, LevelSeq, Out);
      return;
    }
    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      const auto *C = cast<ChoiceExpr>(E);
      bool IsExt = E->kind() == ExprKind::ExtChoice;
      bool First = true;
      for (const ChoiceBranch &B : C->branches()) {
        if (!First)
          Out += IsExt ? " + " : " <+> ";
        First = false;
        Out += Interner.text(B.Guard.Channel);
        Out += B.Guard.isInput() ? "?" : "!";
        if (!B.Body->isEmpty()) {
          Out += " . ";
          print(B.Body, LevelPrefix, Out);
        }
      }
      return;
    }
    case ExprKind::Request: {
      const auto *R = cast<RequestExpr>(E);
      Out += "open ";
      Out += std::to_string(R->request());
      if (!R->policy().isTrivial()) {
        Out += " @ ";
        Out += printPolicyRef(Interner, R->policy());
      }
      Out += " { ";
      print(R->body(), LevelExpr, Out);
      Out += " }";
      return;
    }
    case ExprKind::Framing: {
      const auto *F = cast<FramingExpr>(E);
      Out += printPolicyRef(Interner, F->policy());
      Out += "[ ";
      print(F->body(), LevelExpr, Out);
      Out += " ]";
      return;
    }
    case ExprKind::CloseMark: {
      const auto *C = cast<CloseMarkExpr>(E);
      Out += "close ";
      Out += std::to_string(C->request());
      if (!C->policy().isTrivial()) {
        Out += " @ ";
        Out += printPolicyRef(Interner, C->policy());
      }
      return;
    }
    case ExprKind::FrameOpen: {
      Out += "fopen ";
      Out += printPolicyRef(Interner, cast<FrameOpenExpr>(E)->policy());
      return;
    }
    case ExprKind::FrameClose: {
      Out += "fclose ";
      Out += printPolicyRef(Interner, cast<FrameCloseExpr>(E)->policy());
      return;
    }
    }
  }

  const StringInterner &Interner;
};

} // namespace

std::string sus::hist::print(const HistContext &Ctx, const Expr *E) {
  std::string Out;
  ExprPrinter P(Ctx);
  P.print(E, LevelExpr, Out);
  return Out;
}

void sus::hist::print(const HistContext &Ctx, const Expr *E,
                      std::ostream &OS) {
  OS << print(Ctx, E);
}

void sus::hist::printDot(const HistContext &Ctx, const TransitionSystem &Ts,
                         std::ostream &OS, const std::string &Name) {
  DotWriter W(Name);
  for (TransitionSystem::StateIndex I = 0; I < Ts.numStates(); ++I) {
    std::string Id = "s" + std::to_string(I);
    std::string ShortLabel = print(Ctx, Ts.state(I));
    if (ShortLabel.size() > 40)
      ShortLabel = ShortLabel.substr(0, 37) + "...";
    W.node(Id, ShortLabel,
           Ts.state(I)->isEmpty() ? "shape=doublecircle" : "shape=circle");
  }
  for (TransitionSystem::StateIndex I = 0; I < Ts.numStates(); ++I)
    for (const TransitionSystem::Edge &E : Ts.edges(I))
      W.edge("s" + std::to_string(I), "s" + std::to_string(E.Target),
             E.L.str(Ctx.interner()));
  W.print(OS);
}
