//===- monitor/SessionMonitor.h - One session's fused monitor ---*- C++ -*-===//
///
/// \file
/// The per-session view of a FusedPolicyAutomaton: one product-state
/// pointer, one active-policy bitmask, and (off the hot path) small
/// per-policy frame-nesting counters. The event hot path is
/// `admitsEventIndex` / `advanceEventIndex` — one row load plus, for up to
/// 64 policies, one mask-word AND. A row miss materializes the successor
/// in the automaton's shared memo; past the memo cap the session steps
/// the per-policy DFAs itself, with the same verdicts.
///
/// Semantics mirror policy::ValidityChecker exactly (§3.1 validity):
/// every policy's DFA consumes the full history from session start
/// (history dependence), an event is refused when it would drive the
/// product into a state whose offending mask intersects the *active*
/// mask, opening a frame is refused when its policy is offending at the
/// instant the frame opens, and closing a frame never fails. Violations
/// latch: once a refused label is *advanced* anyway, the session stays
/// violated.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_MONITOR_SESSIONMONITOR_H
#define SUS_MONITOR_SESSIONMONITOR_H

#include "monitor/Fused.h"

#include <cassert>

namespace sus {
namespace monitor {

/// Runs one session against a fused policy set.
class SessionMonitor {
public:
  explicit SessionMonitor(const FusedPolicyAutomaton &Fused)
      : F(&Fused), State(Fused.start()), ActiveHi(Fused.maskWords() - 1, 0),
        ActiveCounts(Fused.Policies.size(), 0) {}

  const FusedPolicyAutomaton &fused() const { return *F; }
  bool isViolated() const { return Violated; }

  /// True once the memo was full when this session needed a new state:
  /// it then steps the per-policy DFAs itself.
  bool isPastCap() const { return State == F->pastCap(); }

  /// Hot path: would firing the event at symbol index \p Idx be admitted?
  bool admitsEventIndex(uint32_t Idx) const {
    const FusedState *Next = State->next(Idx);
    if (!Next) [[unlikely]]
      return admitsSlow(Idx);
    return !offends(*Next) && !Violated;
  }

  /// Hot path: fires the event at symbol index \p Idx unconditionally.
  void advanceEventIndex(uint32_t Idx) {
    const FusedState *Next = State->next(Idx);
    if (!Next) [[unlikely]] {
      advanceSlow(Idx);
      return;
    }
    State = Next;
    if (offends(*Next))
      Violated = true;
  }

  /// Would appending \p L keep the session valid? (No state change.)
  bool wouldAdmit(const hist::Label &L) const {
    if (Violated)
      return false;
    switch (L.kind()) {
    case hist::LabelKind::Event: {
      uint32_t Idx = F->eventIndexOf(L.asEvent());
      // The fused path requires a closed universe (see Fused.h); callers
      // fuse over every event their sessions can fire. An out-of-universe
      // event is genuinely undecidable (wildcard/guard edges might match),
      // so the defensive release behaviour is to admit it — blocking
      // could be a wrong verdict, which the monitor must never give.
      assert(Idx != FusedPolicyAutomaton::NoEvent &&
             "event outside the fused universe");
      return Idx == FusedPolicyAutomaton::NoEvent || admitsEventIndex(Idx);
    }
    case hist::LabelKind::FrameOpen: {
      if (L.policy().isTrivial())
        return true;
      int Bit = F->policyBit(L.policy());
      if (Bit < 0)
        return false; // Uninstantiable (or uncovered): opening violates.
      // History dependence: the history so far must already respect the
      // newly-framed policy.
      return !policyOffends(static_cast<unsigned>(Bit));
    }
    case hist::LabelKind::FrameClose:
      return true;
    default:
      assert(L.isHistoryRelevant() && "monitor consumes events and framings");
      return true;
    }
  }

  /// Appends \p L; returns false when the session is (now) violated.
  /// Mirrors ValidityChecker::append — violations latch.
  bool advance(const hist::Label &L) {
    switch (L.kind()) {
    case hist::LabelKind::Event: {
      uint32_t Idx = F->eventIndexOf(L.asEvent());
      assert(Idx != FusedPolicyAutomaton::NoEvent &&
             "event outside the fused universe");
      if (Idx != FusedPolicyAutomaton::NoEvent)
        advanceEventIndex(Idx);
      break;
    }
    case hist::LabelKind::FrameOpen: {
      if (L.policy().isTrivial())
        break;
      int Bit = F->policyBit(L.policy());
      if (Bit < 0) {
        Violated = true; // Uninstantiable policy: the framing cannot hold.
        break;
      }
      auto B = static_cast<unsigned>(Bit);
      ++ActiveCounts[B];
      activeWord(B) |= uint64_t(1) << (B % 64);
      if (policyOffends(B))
        Violated = true;
      break;
    }
    case hist::LabelKind::FrameClose: {
      if (L.policy().isTrivial())
        break;
      int Bit = F->policyBit(L.policy());
      if (Bit >= 0 && ActiveCounts[Bit] > 0 && --ActiveCounts[Bit] == 0) {
        auto B = static_cast<unsigned>(Bit);
        activeWord(B) &= ~(uint64_t(1) << (B % 64));
      }
      break;
    }
    default:
      assert(L.isHistoryRelevant() && "monitor consumes events and framings");
      break;
    }
    return !Violated;
  }

  /// Would the whole label sequence be admitted, label by label, in order?
  /// (The multi-label probe the Interpreter runs per candidate step.)
  bool wouldAdmitAll(const std::vector<hist::Label> &Ls) const {
    if (Ls.size() == 1)
      return wouldAdmit(Ls.front());
    SessionMonitor Probe = *this;
    for (const hist::Label &L : Ls)
      if (!Probe.wouldAdmit(L) || !Probe.advance(L))
        return false;
    return true;
  }

private:
  /// Does an active policy offend in \p S? One AND up to 64 policies.
  bool offends(const FusedState &S) const {
    return (S.mask0() & Active0) != 0 || (!ActiveHi.empty() && offendsHi(S));
  }
  bool offendsHi(const FusedState &S) const;

  /// Is policy \p Bit offending in the current state?
  bool policyOffends(unsigned Bit) const;

  uint64_t &activeWord(unsigned Bit) {
    return Bit < 64 ? Active0 : ActiveHi[Bit / 64 - 1];
  }
  bool isActive(unsigned Bit) const {
    uint64_t Word = Bit < 64 ? Active0 : ActiveHi[Bit / 64 - 1];
    return (Word >> (Bit % 64)) & 1;
  }

  /// The misses of the hot path: materialize the successor in the shared
  /// memo, or, past its cap, step the per-policy DFAs directly.
  bool admitsSlow(uint32_t Idx) const;
  void advanceSlow(uint32_t Idx);
  /// Does an active policy offend after \p Idx from the per-policy states?
  bool offendsDirect(uint32_t Idx) const;

  const FusedPolicyAutomaton *F;
  /// The current product state; F->pastCap() once the session steps the
  /// per-policy DFAs in Direct instead.
  const FusedState *State;
  uint64_t Active0 = 0;           ///< Active-policy bits 0..63.
  bool Violated = false;
  std::vector<uint64_t> ActiveHi; ///< Active-policy words 1..; empty for K <= 64.
  /// Frame-nesting depth per policy bit (⌊ϕ…⌊ϕ nests); only the derived
  /// active mask is consulted on the event hot path.
  std::vector<uint32_t> ActiveCounts;
  /// Per-policy DFA states past the memo cap (empty before).
  std::vector<automata::StateId> Direct;
};

} // namespace monitor
} // namespace sus

#endif // SUS_MONITOR_SESSIONMONITOR_H
