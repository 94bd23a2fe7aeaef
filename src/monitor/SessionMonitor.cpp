//===- monitor/SessionMonitor.cpp - Memo misses and the past-cap path -----===//

#include "monitor/SessionMonitor.h"

#include "support/Metrics.h"

using namespace sus;
using namespace sus::monitor;

namespace {
metrics::Counter &memoOverflowsCounter() {
  static metrics::Counter &C = metrics::counter("monitor.memo_overflows");
  return C;
}
} // namespace

bool SessionMonitor::offendsHi(const FusedState &S) const {
  for (size_t W = 0; W < ActiveHi.size(); ++W)
    if (S.maskHi()[W] & ActiveHi[W])
      return true;
  return false;
}

bool SessionMonitor::policyOffends(unsigned Bit) const {
  if (isPastCap())
    return F->Parts[Bit].isAccepting(Direct[Bit]);
  return State->offends(Bit);
}

bool SessionMonitor::offendsDirect(uint32_t Idx) const {
  const automata::StateId *From = isPastCap() ? Direct.data() : State->tuple();
  for (unsigned I = 0; I < F->Parts.size(); ++I)
    if (isActive(I) &&
        F->Parts[I].isAccepting(F->Parts[I].stepIndex(From[I], Idx)))
      return true;
  return false;
}

bool SessionMonitor::admitsSlow(uint32_t Idx) const {
  if (!isPastCap())
    if (const FusedState *Next = F->successor(State, Idx))
      return !offends(*Next) && !Violated;
  memoOverflowsCounter().add();
  return !offendsDirect(Idx) && !Violated;
}

void SessionMonitor::advanceSlow(uint32_t Idx) {
  if (!isPastCap()) {
    if (const FusedState *Next = F->successor(State, Idx)) {
      State = Next;
      if (offends(*Next))
        Violated = true;
      return;
    }
    Direct.assign(State->tuple(), State->tuple() + F->Parts.size());
    State = F->pastCap();
  }
  memoOverflowsCounter().add();
  for (unsigned I = 0; I < F->Parts.size(); ++I) {
    Direct[I] = F->Parts[I].stepIndex(Direct[I], Idx);
    if (isActive(I) && F->Parts[I].isAccepting(Direct[I]))
      Violated = true;
  }
}
