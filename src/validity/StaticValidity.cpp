//===- validity/StaticValidity.cpp - Plan validity model checker ---------===//

#include "validity/StaticValidity.h"

#include "plan/Semantics.h"
#include "policy/Compile.h"
#include "support/HashUtil.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "validity/FrameRegularize.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>

using namespace sus;
using namespace sus::hist;
using namespace sus::validity;

namespace {

//===----------------------------------------------------------------------===//
// Monitors
//===----------------------------------------------------------------------===//

/// One tracked policy instance: reachable automaton states + activation
/// count. Both are part of the explored state.
struct MonitorSlot {
  std::vector<policy::UStateId> States;
  unsigned Active = 0;

  bool operator==(const MonitorSlot &O) const {
    return Active == O.Active && States == O.States;
  }
};

struct ExplState {
  const plan::SessionTree *Tree;
  std::vector<MonitorSlot> Monitors;
};

std::vector<uint64_t> encodeState(const ExplState &S) {
  std::vector<uint64_t> Key;
  Key.push_back(reinterpret_cast<uint64_t>(S.Tree));
  for (const MonitorSlot &M : S.Monitors) {
    Key.push_back(M.Active);
    Key.push_back(M.States.size());
    for (policy::UStateId Q : M.States)
      Key.push_back(Q);
  }
  return Key;
}

//===----------------------------------------------------------------------===//
// The checker
//===----------------------------------------------------------------------===//

class Checker {
public:
  Checker(HistContext &Ctx, const plan::Plan &P, const plan::Repository &Repo,
          const policy::PolicyRegistry &Registry,
          const StaticValidityOptions &Options)
      : Ctx(Ctx), P(P), Repo(Repo), Registry(Registry), Options(Options) {}

  StaticValidityResult run(const Expr *Client, plan::Loc ClientLoc);

private:
  /// Gives every policy referenced by the client and the planned services
  /// a monitor slot, in first-occurrence order; returns false on an
  /// uninstantiable one.
  bool collectPolicies(const Expr *Client, StaticValidityResult &Result);

  int slotIndex(const PolicyRef &Ref) const;

  /// Applies \p Labels to \p Monitors; returns the index of a violated
  /// policy slot or -1.
  int applyLabels(const std::vector<Label> &Labels,
                  std::vector<MonitorSlot> &Monitors) const;

  const Expr *maybeRegularize(const Expr *E) {
    return Options.Regularize ? regularizeFramings(Ctx, E) : E;
  }

  HistContext &Ctx;
  const plan::Plan &P;
  const plan::Repository &Repo;
  const policy::PolicyRegistry &Registry;
  const StaticValidityOptions &Options;

  plan::SessionTreeFactory Trees;
  /// The planned services, regularized once per check.
  plan::Repository Bound;
  std::vector<PolicyRef> SlotRefs;
  std::vector<policy::PolicyInstance> SlotInstances;
};

bool Checker::collectPolicies(const Expr *Client,
                              StaticValidityResult &Result) {
  std::vector<const Expr *> Behaviors = {Client};
  for (const auto &[R, L] : P.bindings())
    if (const Expr *Service = Repo.find(L))
      Behaviors.push_back(Service);
  for (const PolicyRef &Ref : policy::policyRefs(Behaviors)) {
    std::optional<policy::PolicyInstance> Inst =
        Registry.instantiate(Ref, Ctx.interner(), nullptr);
    if (!Inst) {
      Result.Valid = false;
      Result.Failure = PlanFailureKind::UnknownPolicy;
      Result.Policy = Ref;
      return false;
    }
    SlotRefs.push_back(Ref);
    SlotInstances.push_back(std::move(*Inst));
  }
  return true;
}

int Checker::slotIndex(const PolicyRef &Ref) const {
  for (size_t I = 0; I < SlotRefs.size(); ++I)
    if (SlotRefs[I] == Ref)
      return static_cast<int>(I);
  return -1;
}

int Checker::applyLabels(const std::vector<Label> &Labels,
                         std::vector<MonitorSlot> &Monitors) const {
  for (const Label &L : Labels) {
    switch (L.kind()) {
    case LabelKind::Event: {
      // All monitors consume every event (history dependence).
      for (size_t I = 0; I < Monitors.size(); ++I) {
        MonitorSlot &Slot = Monitors[I];
        std::vector<policy::UStateId> Next;
        for (policy::UStateId Q : Slot.States)
          for (policy::UStateId T : SlotInstances[I].step(Q, L.asEvent()))
            Next.push_back(T);
        std::sort(Next.begin(), Next.end());
        Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
        Slot.States = std::move(Next);
      }
      for (size_t I = 0; I < Monitors.size(); ++I) {
        if (Monitors[I].Active == 0)
          continue;
        for (policy::UStateId Q : Monitors[I].States)
          if (SlotInstances[I].shape().isOffending(Q))
            return static_cast<int>(I);
      }
      break;
    }
    case LabelKind::FrameOpen: {
      int I = slotIndex(L.policy());
      assert(I >= 0 && "policies were collected up front");
      ++Monitors[I].Active;
      // History dependence: the past must already respect the policy.
      for (policy::UStateId Q : Monitors[I].States)
        if (SlotInstances[I].shape().isOffending(Q))
          return I;
      break;
    }
    case LabelKind::FrameClose: {
      int I = slotIndex(L.policy());
      assert(I >= 0 && "policies were collected up front");
      if (Monitors[I].Active > 0)
        --Monitors[I].Active;
      break;
    }
    default:
      assert(false && "history labels are events and framings");
    }
  }
  return -1;
}

StaticValidityResult Checker::run(const Expr *Client, plan::Loc ClientLoc) {
  StaticValidityResult Result;
  if (!collectPolicies(Client, Result))
    return Result;
  for (const auto &[R, L] : P.bindings())
    if (const Expr *Service = Repo.find(L))
      Bound.add(L, maybeRegularize(Service));

  std::vector<ExplState> States;
  std::vector<std::optional<std::pair<uint32_t, std::string>>> Pred;
  std::unordered_map<std::vector<uint64_t>, uint32_t, WordsHash> Index;
  std::deque<uint32_t> Work;

  std::optional<sus::ResourceExhausted> Trip;
  auto Intern = [&](ExplState S,
                    std::optional<std::pair<uint32_t, std::string>> From)
      -> std::optional<uint32_t> {
    std::vector<uint64_t> Key = encodeState(S);
    auto It = Index.find(Key);
    if (It != Index.end())
      return It->second;
    if (States.size() >= Options.MaxStates)
      return std::nullopt;
    if (Options.Governor) {
      if (std::optional<sus::ResourceExhausted> E = Options.Governor->charge(
              ResourceKind::ProductStates, States.size() + 1)) {
        Trip = E;
        return std::nullopt;
      }
    }
    uint32_t I = static_cast<uint32_t>(States.size());
    States.push_back(std::move(S));
    Pred.push_back(std::move(From));
    Index.emplace(std::move(Key), I);
    Work.push_back(I);
    return I;
  };

  auto TraceTo = [&](uint32_t I, const std::string &Last) {
    std::vector<std::string> Trace;
    Trace.push_back(Last);
    for (uint32_t S = I; Pred[S]; S = Pred[S]->first)
      Trace.push_back(Pred[S]->second);
    std::reverse(Trace.begin(), Trace.end());
    return Trace;
  };

  ExplState Init;
  Init.Tree = Trees.leaf(ClientLoc, maybeRegularize(Client));
  Init.Monitors.resize(SlotInstances.size());
  for (size_t I = 0; I < SlotInstances.size(); ++I)
    Init.Monitors[I].States = {SlotInstances[I].shape().start()};
  Intern(std::move(Init), std::nullopt);

  bool Exceeded = false;
  std::vector<plan::Move> Moves;
  while (!Work.empty()) {
    if (Options.Governor && !Trip) {
      if (std::optional<sus::ResourceExhausted> E = Options.Governor->poll())
        Trip = E;
    }
    if (Trip)
      break;
    uint32_t I = Work.front();
    Work.pop_front();
    // Note: States may reallocate inside the loop; copy what we need.
    const plan::SessionTree *Tree = States[I].Tree;

    Moves.clear();
    plan::sessionMoves(Ctx, Trees, Tree, P, Bound,
                       /*CommittedInternalChoice=*/false, Moves);
    if (Moves.empty() && !Tree->isTerminated())
      Result.HasStuckConfiguration = true;

    for (const plan::Move &M : Moves) {
      std::string Desc = M.str(Ctx.interner());
      if (M.Gap != plan::Move::GapKind::None) {
        Result.Valid = false;
        Result.Failure = M.Gap == plan::Move::GapKind::UnboundRequest
                             ? PlanFailureKind::UnboundRequest
                             : PlanFailureKind::UnknownService;
        Result.Request = M.GapRequest;
        Result.Trace = TraceTo(I, Desc);
        Result.ExploredStates = States.size();
        return Result;
      }
      ExplState Next;
      Next.Tree = M.NewTree;
      Next.Monitors = States[I].Monitors;
      int Violated = applyLabels(M.HistoryAppend, Next.Monitors);
      if (Violated >= 0) {
        Result.Valid = false;
        Result.Failure = PlanFailureKind::PolicyViolation;
        Result.Policy = SlotRefs[Violated];
        Result.Trace = TraceTo(I, Desc);
        Result.ExploredStates = States.size();
        return Result;
      }
      if (!Intern(std::move(Next), std::make_pair(I, std::move(Desc))))
        Exceeded = true;
    }
  }

  Result.ExploredStates = States.size();
  if (Trip) {
    Result.Valid = false;
    Result.Failure = PlanFailureKind::ResourceExhausted;
    Result.Exhausted = Trip;
    return Result;
  }
  if (Exceeded) {
    Result.Valid = false;
    Result.Failure = PlanFailureKind::StateSpaceExceeded;
    return Result;
  }
  Result.Valid = true;
  Result.Failure = PlanFailureKind::None;
  return Result;
}

} // namespace

StaticValidityResult sus::validity::checkPlanValidity(
    HistContext &Ctx, const Expr *Client, plan::Loc ClientLoc,
    const plan::Plan &P, const plan::Repository &Repo,
    const policy::PolicyRegistry &Registry,
    const StaticValidityOptions &Options) {
  trace::Span Span("validity.static", "pipeline");
  Checker C(Ctx, P, Repo, Registry, Options);
  StaticValidityResult Result = C.run(Client, ClientLoc);
  if (Result.Failure == PlanFailureKind::ResourceExhausted)
    Span.tag("governor", Result.Exhausted->deadlineLike()
                             ? "deadline_exceeded"
                             : "budget_exceeded");
  else
    Span.tag("verdict", Result.Valid ? "valid" : "invalid");
  static metrics::Counter &Checks = metrics::counter("validity.checks");
  Checks.add();
  return Result;
}
