//===- net/Explorer.cpp - Whole-network state-space exploration -----------===//

#include "net/Explorer.h"

#include "plan/Semantics.h"
#include "support/HashUtil.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

using namespace sus;
using namespace sus::hist;
using namespace sus::net;

namespace {

/// A network configuration: one tree per component plus the slot usage of
/// every capacity-bounded location.
struct NetState {
  std::vector<const plan::SessionTree *> Trees;
  std::map<plan::Loc, unsigned> InUse;
};

std::vector<uint64_t> encode(const NetState &S) {
  std::vector<uint64_t> Key;
  Key.reserve(S.Trees.size() + 2 * S.InUse.size() + 1);
  for (const plan::SessionTree *T : S.Trees)
    Key.push_back(reinterpret_cast<uint64_t>(T));
  Key.push_back(~0ull);
  for (const auto &[L, N] : S.InUse) {
    Key.push_back(L.id());
    Key.push_back(N);
  }
  return Key;
}

class Explorer {
public:
  Explorer(HistContext &Ctx, const plan::Repository &Repo,
           const std::vector<NetworkComponent> &Components,
           const ExplorerOptions &Options)
      : Ctx(Ctx), Repo(Repo), Components(Components), Options(Options) {}

  ExplorationResult run();

private:
  /// True if the move can fire in \p S: plan gaps never can, and an open
  /// of a full capacity-bounded service waits.
  bool enabled(const plan::Move &M, const NetState &S) const;

  HistContext &Ctx;
  const plan::Repository &Repo;
  const std::vector<NetworkComponent> &Components;
  const ExplorerOptions &Options;
  plan::SessionTreeFactory Trees;
};

bool Explorer::enabled(const plan::Move &M, const NetState &S) const {
  if (M.Gap != plan::Move::GapKind::None)
    return false;
  if (M.K != plan::Move::Kind::Open)
    return true;
  unsigned Cap = Repo.capacity(M.Opened);
  if (Cap == 0)
    return true;
  auto It = S.InUse.find(M.Opened);
  return It == S.InUse.end() || It->second < Cap;
}

ExplorationResult Explorer::run() {
  trace::Span ExploreSpan("net.explore", "net");
  ExplorationResult Result;
  size_t Expanded = 0, DedupHits = 0, MovesGenerated = 0;

  std::vector<NetState> States;
  std::vector<std::optional<std::pair<uint32_t, std::string>>> Pred;
  std::unordered_map<std::vector<uint64_t>, uint32_t, WordsHash> Index;
  std::deque<uint32_t> Work;
  bool Truncated = false;

  auto Intern = [&](NetState S,
                    std::optional<std::pair<uint32_t, std::string>> From) {
    std::vector<uint64_t> Key = encode(S);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      ++DedupHits;
      return;
    }
    if (States.size() >= Options.MaxStates) {
      Truncated = true;
      return;
    }
    uint32_t I = static_cast<uint32_t>(States.size());
    States.push_back(std::move(S));
    Pred.push_back(std::move(From));
    Index.emplace(std::move(Key), I);
    Work.push_back(I);
  };

  std::vector<plan::Move> Moves;
  NetState Init;
  for (const NetworkComponent &C : Components)
    Init.Trees.push_back(Trees.leaf(C.Location, C.Client));
  Intern(std::move(Init), std::nullopt);

  auto AllDone = [](const NetState &S) {
    for (const plan::SessionTree *T : S.Trees)
      if (!T->isTerminated())
        return false;
    return true;
  };

  while (!Work.empty()) {
    uint32_t I = Work.front();
    Work.pop_front();
    ++Expanded;
    NetState Current = States[I]; // Copy: States may reallocate below.

    if (AllDone(Current)) {
      Result.CanComplete = true;
      continue;
    }

    size_t MovesSeen = 0;
    for (size_t C = 0; C < Current.Trees.size(); ++C) {
      Moves.clear();
      plan::sessionMoves(Ctx, Trees, Current.Trees[C], Components[C].Pi,
                         Repo, Options.CommittedInternalChoice, Moves);
      for (const plan::Move &M : Moves) {
        if (!enabled(M, Current))
          continue;
        ++MovesSeen;
        NetState Next = Current;
        Next.Trees[C] = M.NewTree;
        if (M.K == plan::Move::Kind::Open)
          ++Next.InUse[M.Opened];
        if (M.K == plan::Move::Kind::Close) {
          auto It = Next.InUse.find(M.Partner);
          if (It != Next.InUse.end() && It->second > 0 && --It->second == 0)
            Next.InUse.erase(It);
        }
        Intern(std::move(Next),
               std::make_pair(I, "c" + std::to_string(C) + ": " +
                                     M.str(Ctx.interner())));
      }
    }
    MovesGenerated += MovesSeen;

    if (MovesSeen == 0 && !Result.DeadlockReachable) {
      Result.DeadlockReachable = true;
      std::vector<std::string> Trace;
      for (uint32_t S = I; Pred[S]; S = Pred[S]->first)
        Trace.push_back(Pred[S]->second);
      std::reverse(Trace.begin(), Trace.end());
      Result.DeadlockTrace = std::move(Trace);
    }
  }

  Result.States = States.size();
  Result.Exhaustive = !Truncated;
  ExploreSpan.count("states", static_cast<int64_t>(Result.States));
  ExploreSpan.tag("coverage", Truncated ? "truncated" : "exhaustive");
  if (metrics::enabled()) {
    metrics::counter("net.explorer.states_expanded").add(Expanded);
    metrics::counter("net.explorer.dedup_hits").add(DedupHits);
    metrics::counter("net.explorer.moves_generated").add(MovesGenerated);
    metrics::gauge("net.explorer.states_peak")
        .setMax(static_cast<int64_t>(Result.States));
  }
  return Result;
}

} // namespace

ExplorationResult
sus::net::exploreNetwork(HistContext &Ctx, const plan::Repository &Repo,
                         const std::vector<NetworkComponent> &Components,
                         const ExplorerOptions &Options) {
  Explorer E(Ctx, Repo, Components, Options);
  return E.run();
}
