//===- net/Interpreter.cpp - Network operational semantics ---------------===//

#include "net/Interpreter.h"

#include "policy/Compile.h"
#include "support/Metrics.h"
#include "support/Trace.h"

using namespace sus;
using namespace sus::hist;
using namespace sus::net;

Interpreter::Interpreter(HistContext &Ctx, const plan::Repository &Repo,
                         const policy::PolicyRegistry &Registry,
                         std::vector<NetworkComponent> Comps, Options Opts)
    : Ctx(Ctx), Repo(Repo), Opts(Opts), Components(std::move(Comps)),
      Factory(std::make_unique<plan::SessionTreeFactory>()) {
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
    Trees.push_back(Factory->leaf(C.Location, C.Client));
    Histories.emplace_back();
    Monitors.emplace_back(*Fused);
  }
}

std::string Interpreter::describe(const Step &S) const {
  const StringInterner &In = Ctx.interner();
  std::string Actor(In.text(S.Actor));
  if (S.K == Step::Kind::Synch)
    return "tau: " + Actor + " " + S.L.asComm().str(In) + " -> " +
           std::string(In.text(S.Partner));
  return Actor + ": " + S.str(In);
}

std::vector<Step> Interpreter::steps() {
  std::vector<Step> Out;
  std::vector<plan::Move> Moves;
  for (size_t C = 0; C < Components.size(); ++C) {
    Moves.clear();
    plan::sessionMoves(Ctx, *Factory, Trees[C], Components[C].Pi, Repo,
                       Opts.CommittedInternalChoice, Moves);
    for (plan::Move &M : Moves) {
      Step S;
      static_cast<plan::Move &>(S) = std::move(M);
      S.Component = C;
      S.PlanGap = S.Gap != plan::Move::GapKind::None;
      if (S.K == Step::Kind::Open && !S.PlanGap) {
        unsigned Cap = Repo.capacity(S.Opened);
        S.CapacityBlocked = Cap != 0 && sessionsInUse(S.Opened) >= Cap;
      }
      S.Desc = describe(S);
      Out.push_back(std::move(S));
    }
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

  Trees[S.Component] = S.NewTree;
  if (S.K == Step::Kind::Open)
    ++InUse[S.Opened];
  if (S.K == Step::Kind::Close) {
    // The discarded partner releases its replication slot.
    auto It = InUse.find(S.Partner);
    if (It != InUse.end() && It->second > 0)
      --It->second;
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
