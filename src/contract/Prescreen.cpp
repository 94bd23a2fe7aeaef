//===- contract/Prescreen.cpp - Cheap compliance pre-screens --------------===//

#include "contract/Prescreen.h"

#include "contract/Project.h"
#include "hist/Walk.h"
#include "support/Casting.h"

using namespace sus;
using namespace sus::hist;
using namespace sus::contract;

ContractSummary sus::contract::summarizeProjection(const Expr *Contract) {
  if (!Contract->isContract())
    return {}; // Screenable stays false: "anything goes".
  ContractSummary Summary;
  Summary.Screenable = true;
  walk(Contract, [&](const Expr *E) {
    if (const auto *C = dyn_cast<ChoiceExpr>(E))
      for (const ChoiceBranch &B : C->branches())
        Summary.Alphabet.insert(B.Guard);
    return true;
  });
  Summary.InitialSets = readySets(Contract);
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
