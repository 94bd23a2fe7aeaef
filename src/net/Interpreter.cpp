//===- net/Interpreter.cpp - Network operational semantics ---------------===//

#include "net/Interpreter.h"

#include "hist/Derive.h"
#include "hist/Printer.h"
#include "policy/Compile.h"
#include "support/Casting.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>

using namespace sus;
using namespace sus::hist;
using namespace sus::net;

namespace {

/// Φ(H): pending ⌋ϕ markers along the sequential spine (rule Close).
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

} // namespace

Interpreter::Interpreter(HistContext &Ctx, const plan::Repository &Repo,
                         const policy::PolicyRegistry &Registry,
                         std::vector<NetworkComponent> Comps, Options Opts)
    : Ctx(Ctx), Repo(Repo), Opts(Opts), Components(std::move(Comps)) {
  // Every event any client or published service can fire is in the
  // universe, so no reachable step leaves it.
  std::vector<const Expr *> Behaviors;
  for (const NetworkComponent &C : Components)
    Behaviors.push_back(C.Client);
  for (plan::Loc L : Repo.locations())
    Behaviors.push_back(Repo.find(L));
  Fused = std::make_unique<const monitor::FusedPolicyAutomaton>(
      monitor::fusePolicies(Registry, Ctx.interner(),
                            monitor::collectPolicyRefs(Behaviors),
                            policy::eventUniverse(Behaviors)));
  for (const NetworkComponent &C : Components) {
    Trees.push_back(Session::leaf(C.Location, C.Client));
    Histories.emplace_back();
    Monitors.emplace_back(*Fused);
  }
}

Session *Interpreter::resolve(size_t Component,
                              const std::vector<bool> &Path) {
  Session *Node = Trees[Component].get();
  for (bool Right : Path) {
    Node = Right ? Node->Right.get() : Node->Left.get();
    assert(Node && "stale step path");
  }
  return Node;
}

void Interpreter::stepsOf(size_t Component, Session *Node,
                          std::vector<bool> &Path, std::vector<Step> &Out) {
  const std::string LocPrefix =
      std::string(Ctx.interner().text(Node->IsLeaf
                                          ? Node->Location
                                          : Components[Component].Location));
  if (Node->IsLeaf) {
    // Committed-choice mode: a multi-branch ⊕ must resolve first.
    if (Opts.CommittedInternalChoice) {
      if (auto Split = splitMultiOutputHead(Ctx, Node->Behavior)) {
        for (const ChoiceBranch &B : Split->first->branches()) {
          Step S;
          S.Component = Component;
          S.K = Step::Kind::Commit;
          S.Path = Path;
          S.NewBehavior =
              Ctx.seq(Ctx.prefix(B.Guard, B.Body), Split->second);
          S.Desc = std::string(Ctx.interner().text(Node->Location)) +
                   ": commit " + B.Guard.str(Ctx.interner());
          Out.push_back(std::move(S));
        }
        return; // No other step until the commitment is made.
      }
    }
    for (const Transition &T : derive(Ctx, Node->Behavior)) {
      switch (T.L.kind()) {
      case LabelKind::Event:
      case LabelKind::FrameOpen:
      case LabelKind::FrameClose: {
        Step S;
        S.Component = Component;
        S.K = Step::Kind::Access;
        S.Path = Path;
        S.NewBehavior = T.Target;
        S.HistoryAppend.push_back(T.L);
        S.Desc = LocPrefix + ": " + T.L.str(Ctx.interner());
        Out.push_back(std::move(S));
        break;
      }
      case LabelKind::Open: {
        Step S;
        S.Component = Component;
        S.K = Step::Kind::Open;
        S.Path = Path;
        S.NewBehavior = T.Target;
        S.Desc = LocPrefix + ": " + T.L.str(Ctx.interner());
        std::optional<plan::Loc> L =
            Components[Component].Pi.lookup(T.L.request());
        const Expr *Service = L ? Repo.find(*L) : nullptr;
        if (!L || !Service) {
          S.PlanGap = true;
          Out.push_back(std::move(S));
          break;
        }
        S.ServiceLoc = *L;
        S.ServiceBehavior = Service;
        unsigned Cap = Repo.capacity(*L);
        if (Cap != 0) {
          auto It = InUse.find(*L);
          if (It != InUse.end() && It->second >= Cap)
            S.CapacityBlocked = true;
        }
        if (!T.L.policy().isTrivial())
          S.HistoryAppend.push_back(Label::frameOpen(T.L.policy()));
        Out.push_back(std::move(S));
        break;
      }
      case LabelKind::Close:
        // Handled at the enclosing pair (rule Close discards the partner).
        break;
      case LabelKind::Input:
      case LabelKind::Output:
      case LabelKind::Tau:
        // Communication needs the enclosing pair (rule Synch).
        break;
      }
    }
    return;
  }

  // Rule Session: explore both sides.
  Path.push_back(false);
  stepsOf(Component, Node->Left.get(), Path, Out);
  Path.back() = true;
  stepsOf(Component, Node->Right.get(), Path, Out);
  Path.pop_back();

  // Rules Synch and Close at this pair (both relevant sides leaves).
  auto TryActor = [&](Session *X, Session *Y, bool XIsLeft) {
    if (!X->IsLeaf)
      return;
    // In committed-choice mode an unresolved ⊕ cannot act yet.
    if (Opts.CommittedInternalChoice &&
        splitMultiOutputHead(Ctx, X->Behavior))
      return;
    for (const Transition &TX : derive(Ctx, X->Behavior)) {
      if (TX.L.isClose() && Y->IsLeaf) {
        Step S;
        S.Component = Component;
        S.K = Step::Kind::Close;
        S.Path = Path;
        S.ActorIsLeft = XIsLeft;
        S.NewBehavior = TX.Target;
        std::vector<PolicyRef> Pending;
        pendingFrameCloses(Y->Behavior, Pending);
        for (const PolicyRef &Ref : Pending)
          if (!Ref.isTrivial())
            S.HistoryAppend.push_back(Label::frameClose(Ref));
        if (!TX.L.policy().isTrivial())
          S.HistoryAppend.push_back(Label::frameClose(TX.L.policy()));
        S.Desc = std::string(Ctx.interner().text(X->Location)) + ": " +
                 TX.L.str(Ctx.interner());
        Out.push_back(std::move(S));
        continue;
      }
      if (!TX.L.isComm() || !Y->IsLeaf)
        continue;
      CommAction AX = TX.L.asComm();
      if (!AX.isOutput())
        continue; // Enumerate each synchronization from the sender side.
      for (const Transition &TY : derive(Ctx, Y->Behavior)) {
        if (!TY.L.isComm() || TY.L.asComm() != AX.complement())
          continue;
        Step S;
        S.Component = Component;
        S.K = Step::Kind::Synch;
        S.Path = Path;
        S.ActorIsLeft = XIsLeft;
        S.NewBehavior = TX.Target;
        S.PartnerResidual = TY.Target;
        S.Desc = "tau: " + std::string(Ctx.interner().text(X->Location)) +
                 " " + AX.str(Ctx.interner()) + " -> " +
                 std::string(Ctx.interner().text(Y->Location));
        Out.push_back(std::move(S));
      }
    }
  };
  TryActor(Node->Left.get(), Node->Right.get(), /*XIsLeft=*/true);
  TryActor(Node->Right.get(), Node->Left.get(), /*XIsLeft=*/false);
}

std::vector<Step> Interpreter::steps() {
  std::vector<Step> Out;
  for (size_t C = 0; C < Components.size(); ++C) {
    std::vector<bool> Path;
    stepsOf(C, Trees[C].get(), Path, Out);
  }
  // Monitor verdicts: a step is blocked if its history extension breaks
  // validity (rule Access / Open / Close premises |= η'). This is the
  // work a verified plan saves: with the monitor off (§5), no step is
  // ever probed.
  if (Opts.MonitorEnabled) {
    for (Step &S : Out) {
      if (S.PlanGap || S.HistoryAppend.empty())
        continue;
      S.Blocked = !Monitors[S.Component].wouldAdmitAll(S.HistoryAppend);
    }
  }
  return Out;
}

bool Interpreter::apply(const Step &S) {
  if (S.PlanGap || S.CapacityBlocked)
    return false;
  if (Opts.MonitorEnabled && S.Blocked)
    return false;

  Session *Node = resolve(S.Component, S.Path);
  switch (S.K) {
  case Step::Kind::Access:
  case Step::Kind::Commit:
    assert(Node->IsLeaf && "access/commit step targets a leaf");
    Node->Behavior = S.NewBehavior;
    break;
  case Step::Kind::Open: {
    assert(Node->IsLeaf && "open step targets a leaf");
    auto Opener = Session::leaf(Node->Location, S.NewBehavior);
    auto Server = Session::leaf(S.ServiceLoc, S.ServiceBehavior);
    Node->IsLeaf = false;
    Node->Behavior = nullptr;
    Node->Left = std::move(Opener);
    Node->Right = std::move(Server);
    ++InUse[S.ServiceLoc];
    break;
  }
  case Step::Kind::Synch: {
    assert(!Node->IsLeaf && "synch step targets a pair");
    Session *Actor = S.ActorIsLeft ? Node->Left.get() : Node->Right.get();
    Session *Partner = S.ActorIsLeft ? Node->Right.get() : Node->Left.get();
    Actor->Behavior = S.NewBehavior;
    Partner->Behavior = S.PartnerResidual;
    break;
  }
  case Step::Kind::Close: {
    assert(!Node->IsLeaf && "close step targets a pair");
    Session *Actor = S.ActorIsLeft ? Node->Left.get() : Node->Right.get();
    Session *Partner = S.ActorIsLeft ? Node->Right.get() : Node->Left.get();
    // The discarded partner releases its replication slot.
    auto It = InUse.find(Partner->Location);
    if (It != InUse.end() && It->second > 0)
      --It->second;
    plan::Loc L = Actor->Location;
    Node->IsLeaf = true;
    Node->Location = L;
    Node->Behavior = S.NewBehavior;
    Node->Left.reset();
    Node->Right.reset();
    break;
  }
  }

  for (const Label &L : S.HistoryAppend) {
    Histories[S.Component].append(L);
    Monitors[S.Component].advance(L);
  }
  TraceLog.push_back(S.Desc);
  return true;
}

RunStats Interpreter::run(uint64_t Seed, size_t MaxSteps) {
  trace::Span RunSpan("net.run", "net");
  RunStats Stats;
  std::mt19937_64 Rng(Seed);
  for (size_t N = 0; N < MaxSteps; ++N) {
    std::vector<Step> All = steps();
    std::vector<const Step *> Applicable;
    for (const Step &S : All) {
      if (S.PlanGap)
        continue;
      if (S.CapacityBlocked) {
        ++Stats.CapacityWaits;
        continue;
      }
      if (Opts.MonitorEnabled && S.Blocked) {
        ++Stats.BlockedAttempts;
        continue;
      }
      Applicable.push_back(&S);
    }
    if (Applicable.empty())
      break;
    size_t Pick = std::uniform_int_distribution<size_t>(
        0, Applicable.size() - 1)(Rng);
    if (!apply(*Applicable[Pick])) {
      // The step was enumerated as applicable yet refused to apply: the
      // step/apply contract is broken. The old assert-only check silently
      // swallowed this in NDEBUG builds *and* counted the phantom step;
      // record the failure, leave the component stuck, and stop instead
      // of spinning on a step that will never fire.
      ++Stats.FailedApplies;
      if (metrics::enabled())
        metrics::counter("net.interpreter.failed_applies").add();
      break;
    }
    ++Stats.StepsTaken;
  }

  Stats.AllCompleted = true;
  for (size_t C = 0; C < Components.size(); ++C) {
    if (isViolated(C))
      ++Stats.Violations;
    if (!isDone(C)) {
      Stats.AllCompleted = false;
      Stats.StuckComponents.push_back(C);
    }
  }
  // Bumped once per run, not per step, so the registry lookup is off the
  // hot path (and skipped entirely while metrics are off).
  if (metrics::enabled()) {
    metrics::counter("net.interpreter.steps").add(Stats.StepsTaken);
    metrics::counter("net.interpreter.monitor_blocks")
        .add(Stats.BlockedAttempts);
    metrics::counter("net.interpreter.capacity_waits")
        .add(Stats.CapacityWaits);
  }
  RunSpan.count("steps", static_cast<int64_t>(Stats.StepsTaken));
  RunSpan.tag("outcome", Stats.AllCompleted ? "completed" : "stuck");
  return Stats;
}

std::string Interpreter::configStr() const {
  std::string Out;
  for (size_t C = 0; C < Components.size(); ++C) {
    if (C != 0)
      Out += " || ";
    std::string Eta = Histories[C].str(Ctx.interner());
    Out += Eta.empty() ? "e" : Eta;
    Out += ", ";
    Out += Trees[C]->str(Ctx);
  }
  return Out;
}
