//===- contract/ComplianceProduct.cpp - Product automaton (Def. 5) -------===//

#include "contract/ComplianceProduct.h"

#include "automata/KernelStats.h"
#include "automata/Ops.h"
#include "hist/Printer.h"
#include "support/DotWriter.h"
#include "support/HashUtil.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace sus;
using namespace sus::hist;
using namespace sus::contract;

bool sus::contract::isStuckPair(const Expr *Client,
                                const std::vector<Transition> &ClientSteps,
                                const std::vector<Transition> &ServerSteps) {
  // The client may terminate whenever its operations are complete; Def. 5
  // only marks states with residual client work.
  if (Client->isEmpty())
    return false;

  // Condition (i): somebody can send.
  bool SomeoneOutputs = false;
  for (const Transition &T : ClientSteps)
    if (T.L.isComm() && T.L.asComm().isOutput()) {
      SomeoneOutputs = true;
      break;
    }
  if (!SomeoneOutputs)
    for (const Transition &T : ServerSteps)
      if (T.L.isComm() && T.L.asComm().isOutput()) {
        SomeoneOutputs = true;
        break;
      }
  if (!SomeoneOutputs)
    return true; // ¬(i): both sides wait on inputs (or are stuck).

  // Condition (ii): every output has a matching input on the other side.
  auto HasInput = [](const std::vector<Transition> &Steps, Symbol Channel) {
    for (const Transition &T : Steps)
      if (T.L.isComm() && T.L.asComm().isInput() &&
          T.L.asComm().Channel == Channel)
        return true;
    return false;
  };
  for (const Transition &T : ClientSteps)
    if (T.L.isComm() && T.L.asComm().isOutput() &&
        !HasInput(ServerSteps, T.L.asComm().Channel))
      return true; // ¬(ii).
  for (const Transition &T : ServerSteps)
    if (T.L.isComm() && T.L.asComm().isOutput() &&
        !HasInput(ClientSteps, T.L.asComm().Channel))
      return true; // ¬(ii).
  return false;
}

ComplianceProduct::ComplianceProduct(HistContext &Ctx, const Expr *Client,
                                     const Expr *Server, size_t MaxStates,
                                     const ResourceGovernor *Gov) {
  // The pair-BFS below is the Thm. 1 emptiness kernel; account it with the
  // automata kernels so bench_verifier can report kernel time separately.
  automata::KernelTimerScope Timer("contract.compliance_product");
  struct PairHash {
    size_t operator()(const std::pair<const Expr *, const Expr *> &P) const {
      return hashAll(reinterpret_cast<uintptr_t>(P.first),
                     reinterpret_cast<uintptr_t>(P.second));
    }
  };
  std::unordered_map<std::pair<const Expr *, const Expr *>, StateIndex,
                     PairHash>
      Index;
  std::deque<StateIndex> Work;

  auto InternState = [&](const Expr *C, const Expr *S,
                         std::optional<std::pair<StateIndex, CommAction>>
                             From) -> std::optional<StateIndex> {
    auto Key = std::make_pair(C, S);
    auto It = Index.find(Key);
    if (It != Index.end())
      return It->second;
    if (States.size() >= MaxStates) {
      Complete = false;
      return std::nullopt;
    }
    if (Gov) {
      if (std::optional<ResourceExhausted> E =
              Gov->chargeProductStates(States.size() + 1)) {
        Exhausted = E;
        Complete = false;
        return std::nullopt;
      }
    }
    StateIndex I = static_cast<StateIndex>(States.size());
    States.push_back({C, S, /*Final=*/false});
    Out.emplace_back();
    Pred.push_back(From);
    Index.emplace(Key, I);
    Work.push_back(I);
    return I;
  };

  InternState(Client, Server, std::nullopt);

  while (!Work.empty()) {
    if (Gov) {
      if (std::optional<ResourceExhausted> E = Gov->poll()) {
        Exhausted = E;
        Complete = false;
        break;
      }
    }
    StateIndex I = Work.front();
    Work.pop_front();
    const Expr *C = States[I].Client;
    const Expr *S = States[I].Server;

    std::vector<Transition> ClientSteps = derive(Ctx, C);
    std::vector<Transition> ServerSteps = derive(Ctx, S);

    if (isStuckPair(C, ClientSteps, ServerSteps)) {
      States[I].Final = true;
      if (!FirstFinal)
        FirstFinal = I;
      // Final states have no outgoing transitions (Def. 5's δ excludes
      // them): they are the accepted stuck configurations.
      continue;
    }

    for (const Transition &CT : ClientSteps) {
      if (!CT.L.isComm())
        continue;
      CommAction CA = CT.L.asComm();
      for (const Transition &ST : ServerSteps) {
        if (!ST.L.isComm())
          continue;
        if (ST.L.asComm() != CA.complement())
          continue;
        std::optional<StateIndex> Next =
            InternState(CT.Target, ST.Target, std::make_pair(I, CA));
        if (Next)
          Out[I].push_back({CA, *Next});
      }
    }
  }
}

std::vector<CommAction> ComplianceProduct::pathTo(StateIndex Target) const {
  std::vector<CommAction> Path;
  StateIndex S = Target;
  while (Pred[S]) {
    Path.push_back(Pred[S]->second);
    S = Pred[S]->first;
  }
  std::reverse(Path.begin(), Path.end());
  return Path;
}

void ComplianceProduct::printDot(const HistContext &Ctx, std::ostream &OS,
                                 const std::string &Name) const {
  DotWriter W(Name);
  auto Shorten = [](std::string S) {
    if (S.size() > 28)
      S = S.substr(0, 25) + "...";
    return S;
  };
  for (StateIndex I = 0; I < States.size(); ++I) {
    const State &S = States[I];
    std::string Label = Shorten(print(Ctx, S.Client)) + "  |  " +
                        Shorten(print(Ctx, S.Server));
    W.node("p" + std::to_string(I), Label,
           S.Final ? "shape=doublecircle, color=red" : "shape=box");
  }
  for (StateIndex I = 0; I < States.size(); ++I)
    for (const Edge &E : Out[I])
      W.edge("p" + std::to_string(I), "p" + std::to_string(E.Target),
             "tau(" + E.ClientAction.str(Ctx.interner()) + ")");
  W.print(OS);
}

automata::Dfa ComplianceProduct::toDfa() const {
  // Alphabet {τ}: symbol code 0. The product is deterministic only up to
  // branching; collapse it by keeping the automaton nondeterministic and
  // determinizing — but a DFA over one letter cannot express branching, so
  // instead expose the reachability structure: each distinct edge gets the
  // same τ code and the result is built via the NFA path.
  automata::Nfa N;
  for (const State &S : States)
    N.addState(S.Final);
  N.setStart(0);
  for (StateIndex I = 0; I < States.size(); ++I)
    for (const Edge &E : Out[I])
      N.addEdge(I, /*Sym=*/0, E.Target);
  return automata::determinize(N);
}
