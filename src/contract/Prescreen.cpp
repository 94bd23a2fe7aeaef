//===- contract/Prescreen.cpp - Cheap compliance pre-screens --------------===//

#include "contract/Prescreen.h"

#include "contract/Project.h"
#include "support/Casting.h"

#include <unordered_set>

using namespace sus;
using namespace sus::hist;
using namespace sus::contract;

namespace {

/// Collects every choice guard occurring anywhere in a contract. Nodes are
/// hash-consed, so a visited set makes the walk linear in *distinct*
/// subterms even when branches share continuations.
void collectAlphabet(const Expr *E, std::set<CommAction> &Out,
                     std::unordered_set<const Expr *> &Visited) {
  if (!E || !Visited.insert(E).second)
    return;
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
    return;
  case ExprKind::Mu:
    collectAlphabet(cast<MuExpr>(E)->body(), Out, Visited);
    return;
  case ExprKind::Seq:
    collectAlphabet(cast<SeqExpr>(E)->head(), Out, Visited);
    collectAlphabet(cast<SeqExpr>(E)->tail(), Out, Visited);
    return;
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches()) {
      Out.insert(B.Guard);
      collectAlphabet(B.Body, Out, Visited);
    }
    return;
  default:
    // Not in the contract fragment; the caller checked isContract first,
    // so this is unreachable — but stay conservative if it ever isn't.
    return;
  }
}

} // namespace

ContractSummary sus::contract::summarizeProjection(const Expr *Contract) {
  ContractSummary Summary;
  if (!isContract(Contract))
    return Summary; // Screenable stays false: "anything goes".
  Summary.Screenable = true;
  Summary.InitialSets = readySets(Contract);
  std::unordered_set<const Expr *> Visited;
  collectAlphabet(Contract, Summary.Alphabet, Visited);
  for (const ReadySet &S : Summary.InitialSets) {
    if (S.empty())
      continue;
    Summary.NeedsSync = true;
    if (Summary.IndexKey.empty() || S.size() < Summary.IndexKey.size())
      Summary.IndexKey = S;
  }
  return Summary;
}

ContractSummary sus::contract::summarizeContract(HistContext &Ctx,
                                                 const Expr *E) {
  return summarizeProjection(project(Ctx, E));
}

PrescreenVerdict
sus::contract::prescreenCompliance(const ContractSummary &Client,
                                   const ContractSummary &Service) {
  if (!Client.Screenable || !Service.Screenable)
    return PrescreenVerdict::Pass;

  // Alphabet screen: with no dual action anywhere in the service, the
  // product has no synchronized step, so a client that must synchronize
  // (some non-empty ready set) is stuck by Def. 4 clause (1).
  if (Client.NeedsSync) {
    bool AnyDual = false;
    for (const CommAction &A : Client.Alphabet)
      if (Service.Alphabet.count(A.complement())) {
        AnyDual = true;
        break;
      }
    if (!AnyDual)
      return PrescreenVerdict::AlphabetReject;
  }

  // First-step screen: Def. 4 clause (1) at the initial state. One pair
  // (C ≠ ∅, S) with C ∩ S̄ = ∅ is a stuck state the product checker is
  // guaranteed to reach at its start.
  for (const ReadySet &C : Client.InitialSets) {
    if (C.empty())
      continue;
    for (const ReadySet &S : Service.InitialSets)
      if (!canSynchronize(C, S))
        return PrescreenVerdict::FirstStepReject;
  }
  return PrescreenVerdict::Pass;
}
