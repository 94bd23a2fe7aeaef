//===- plan/Semantics.cpp - The §3 network semantics ----------------------===//

#include "plan/Semantics.h"

#include "hist/Derive.h"
#include "hist/Printer.h"
#include "support/Casting.h"

#include <optional>

using namespace sus;
using namespace sus::hist;
using namespace sus::plan;

namespace {

/// Φ(H): the ⌋ϕ markers pending along the sequential spine of H (the
/// auxiliary function of rule Close).
void pendingFrameCloses(const Expr *E, std::vector<PolicyRef> &Out) {
  if (const auto *S = dyn_cast<SeqExpr>(E)) {
    pendingFrameCloses(S->head(), Out);
    pendingFrameCloses(S->tail(), Out);
    return;
  }
  if (const auto *F = dyn_cast<FrameCloseExpr>(E))
    Out.push_back(F->policy());
}

/// If E ≡ (⊕ᵢ āᵢ.Hᵢ)·K with more than one branch, returns the choice and
/// the continuation K (unfolding a leading µ if needed).
std::optional<std::pair<const IntChoiceExpr *, const Expr *>>
splitMultiOutputHead(HistContext &Ctx, const Expr *E, unsigned Fuel = 8) {
  if (Fuel == 0)
    return std::nullopt;
  if (const auto *C = dyn_cast<IntChoiceExpr>(E))
    return C->numBranches() > 1
               ? std::make_optional(std::make_pair(C, Ctx.empty()))
               : std::nullopt;
  if (const auto *S = dyn_cast<SeqExpr>(E)) {
    auto Head = splitMultiOutputHead(Ctx, S->head(), Fuel - 1);
    if (!Head)
      return std::nullopt;
    return std::make_pair(Head->first, Ctx.seq(Head->second, S->tail()));
  }
  if (const auto *M = dyn_cast<MuExpr>(E)) {
    const Expr *Unfolded = Ctx.unfold(M);
    if (Unfolded == E)
      return std::nullopt;
    return splitMultiOutputHead(Ctx, Unfolded, Fuel - 1);
  }
  return std::nullopt;
}

class Enumerator {
public:
  Enumerator(HistContext &Ctx, SessionTreeFactory &Trees, const Plan &P,
             const Repository &Repo, bool Committed, std::vector<Move> &Out)
      : Ctx(Ctx), Trees(Trees), P(P), Repo(Repo), Committed(Committed),
        Out(Out) {}

  void movesOf(const SessionTree *Node);

private:
  void leafMoves(const SessionTree *Leaf);
  void pairMoves(const SessionTree *Node, const SessionTree *X,
                 const SessionTree *Y);

  HistContext &Ctx;
  SessionTreeFactory &Trees;
  const Plan &P;
  const Repository &Repo;
  bool Committed;
  std::vector<Move> &Out;
};

void Enumerator::leafMoves(const SessionTree *Leaf) {
  // Committed-choice mode: a multi-branch ⊕ must resolve first.
  if (Committed) {
    if (auto Split = splitMultiOutputHead(Ctx, Leaf->Behavior)) {
      for (const ChoiceBranch &B : Split->first->branches()) {
        Move M;
        M.K = Move::Kind::Commit;
        M.NewTree = Trees.leaf(
            Leaf->Location,
            Ctx.seq(Ctx.prefix(B.Guard, B.Body), Split->second));
        M.Actor = Leaf->Location;
        M.L = Label::comm(B.Guard);
        Out.push_back(std::move(M));
      }
      return; // No other move until the commitment is made.
    }
  }
  for (Transition &T : derive(Ctx, Leaf->Behavior)) {
    // Close and communication need the enclosing pair (rules Close and
    // Synch).
    if (T.L.isClose() || T.L.isComm() || T.L.isTau())
      continue;
    Move M;
    M.Actor = Leaf->Location;
    if (T.L.isOpen()) {
      // Rule Open: bind r through π, spawn the service alongside.
      M.K = Move::Kind::Open;
      std::optional<Loc> L = P.lookup(T.L.request());
      const Expr *Service = L ? Repo.find(*L) : nullptr;
      if (!Service) {
        M.Gap = L ? Move::GapKind::UnknownService
                  : Move::GapKind::UnboundRequest;
        M.GapRequest = T.L.request();
      } else {
        M.NewTree = Trees.pair(Trees.leaf(Leaf->Location, T.Target),
                               Trees.leaf(*L, Service));
        M.Opened = *L;
        if (!T.L.policy().isTrivial())
          M.HistoryAppend.push_back(Label::frameOpen(T.L.policy()));
      }
    } else {
      // Rule Access: γ ∈ Ev ∪ Frm joins the history.
      M.K = Move::Kind::Access;
      M.NewTree = Trees.leaf(Leaf->Location, T.Target);
      M.HistoryAppend.push_back(T.L);
    }
    M.L = std::move(T.L);
    Out.push_back(std::move(M));
  }
}

void Enumerator::pairMoves(const SessionTree *Node, const SessionTree *X,
                           const SessionTree *Y) {
  // Both sides must be leaves: a partner engaged in a nested session
  // first has to finish it.
  if (!X->IsLeaf || !Y->IsLeaf)
    return;
  // In committed-choice mode an unresolved ⊕ cannot act yet.
  if (Committed && splitMultiOutputHead(Ctx, X->Behavior))
    return;
  bool XIsLeft = X == Node->Left;
  for (const Transition &TX : derive(Ctx, X->Behavior)) {
    // Rule Close: the opener ends the session; the partner is discarded
    // and its pending frame closes are flushed into the history.
    if (TX.L.isClose()) {
      Move M;
      M.K = Move::Kind::Close;
      M.NewTree = Trees.leaf(X->Location, TX.Target);
      std::vector<PolicyRef> Pending;
      pendingFrameCloses(Y->Behavior, Pending);
      for (const PolicyRef &Ref : Pending)
        if (!Ref.isTrivial())
          M.HistoryAppend.push_back(Label::frameClose(Ref));
      if (!TX.L.policy().isTrivial())
        M.HistoryAppend.push_back(Label::frameClose(TX.L.policy()));
      M.Actor = X->Location;
      M.Partner = Y->Location;
      M.L = TX.L;
      Out.push_back(std::move(M));
      continue;
    }
    // Rule Synch, enumerated once from the sender's side.
    if (!TX.L.isComm() || !TX.L.asComm().isOutput())
      continue;
    CommAction Want = TX.L.asComm().complement();
    for (const Transition &TY : derive(Ctx, Y->Behavior)) {
      if (!TY.L.isComm() || TY.L.asComm() != Want)
        continue;
      Move M;
      M.K = Move::Kind::Synch;
      const SessionTree *NX = Trees.leaf(X->Location, TX.Target);
      const SessionTree *NY = Trees.leaf(Y->Location, TY.Target);
      M.NewTree = XIsLeft ? Trees.pair(NX, NY) : Trees.pair(NY, NX);
      M.Actor = X->Location;
      M.Partner = Y->Location;
      M.L = TX.L;
      Out.push_back(std::move(M));
    }
  }
}

void Enumerator::movesOf(const SessionTree *Node) {
  if (Node->IsLeaf) {
    leafMoves(Node);
    return;
  }
  // Rule Session: either side evolves on its own inside the pair.
  size_t Begin = Out.size();
  movesOf(Node->Left);
  for (size_t I = Begin; I < Out.size(); ++I)
    if (Out[I].NewTree)
      Out[I].NewTree = Trees.pair(Out[I].NewTree, Node->Right);
  Begin = Out.size();
  movesOf(Node->Right);
  for (size_t I = Begin; I < Out.size(); ++I)
    if (Out[I].NewTree)
      Out[I].NewTree = Trees.pair(Node->Left, Out[I].NewTree);
  // Rules Synch and Close at this pair.
  pairMoves(Node, Node->Left, Node->Right);
  pairMoves(Node, Node->Right, Node->Left);
}

} // namespace

std::string SessionTree::str(const HistContext &Ctx) const {
  if (IsLeaf)
    return std::string(Ctx.interner().text(Location)) + ": " +
           print(Ctx, Behavior);
  return "[" + Left->str(Ctx) + ", " + Right->str(Ctx) + "]";
}

std::string Move::str(const StringInterner &Interner) const {
  switch (K) {
  case Kind::Synch:
    return "tau(" + L.asComm().str(Interner) + ")";
  case Kind::Commit:
    return "commit " + L.asComm().str(Interner);
  default:
    return L.str(Interner);
  }
}

void sus::plan::sessionMoves(HistContext &Ctx, SessionTreeFactory &Trees,
                             const SessionTree *Tree, const Plan &P,
                             const Repository &Repo,
                             bool CommittedInternalChoice,
                             std::vector<Move> &Out) {
  Enumerator(Ctx, Trees, P, Repo, CommittedInternalChoice, Out)
      .movesOf(Tree);
}
