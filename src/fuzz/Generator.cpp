//===- fuzz/Generator.cpp - Seeded random .sus program generator ----------===//

#include "fuzz/Generator.h"

#include "hist/HistContext.h"
#include "hist/Printer.h"
#include "hist/WellFormed.h"

#include <algorithm>
#include <cassert>
#include <random>
#include <sstream>

using namespace sus;
using namespace sus::fuzz;
using namespace sus::hist;

std::string GeneratedProgram::source() const { return joinDecls(Decls); }

std::string sus::fuzz::joinDecls(const std::vector<std::string> &Decls) {
  std::string Out;
  for (const std::string &D : Decls) {
    if (!Out.empty())
      Out += "\n\n";
    Out += D;
  }
  Out += "\n";
  return Out;
}

namespace {

/// Event/policy argument values are drawn from 1..MaxValue.
constexpr unsigned MaxValue = 3;

GeneratorOptions clamped(GeneratorOptions O) {
  auto Clamp = [](unsigned V, unsigned Lo, unsigned Hi) {
    return std::min(std::max(V, Lo), Hi);
  };
  O.Depth = Clamp(O.Depth, 1, 12);
  O.AlphabetSize = Clamp(O.AlphabetSize, 1, 16);
  O.NumPolicies = Clamp(O.NumPolicies, 1, 8);
  O.NumServices = Clamp(O.NumServices, 1, 12);
  O.NumClients = Clamp(O.NumClients, 1, 8);
  O.ChoiceWidth = Clamp(O.ChoiceWidth, 1, 4);
  return O;
}

/// One generation run. Owns the scratch HistContext the behaviors are
/// built in; everything leaves as rendered text, so the context dies with
/// the run.
class Gen {
public:
  Gen(uint64_t Seed, const GeneratorOptions &Opts)
      : O(clamped(Opts)), Rng(Seed) {}

  GeneratedProgram run();

private:
  unsigned pick(unsigned N) { return static_cast<unsigned>(Rng() % N); }
  bool chance(unsigned Percent) { return pick(100) < Percent; }
  int64_t value() { return 1 + pick(MaxValue); }

  std::string eventName(unsigned I) {
    return "ev" + std::to_string(I % O.AlphabetSize);
  }
  std::string channelName(unsigned I) {
    return "ch" + std::to_string(I % O.AlphabetSize);
  }

  PolicyRef somePolicyRef() {
    PolicyRef Ref;
    Ref.Name = Ctx.symbol("phi" + std::to_string(pick(O.NumPolicies)));
    Ref.Args.push_back({Value::integer(value())});
    return Ref;
  }

  CommAction someComm() {
    Symbol Ch = Ctx.symbol(channelName(pick(O.AlphabetSize)));
    return chance(50) ? CommAction::input(Ch) : CommAction::output(Ch);
  }

  const Expr *leaf() {
    switch (pick(3)) {
    case 0:
      return Ctx.empty();
    case 1:
      return Ctx.event(eventName(pick(O.AlphabetSize)));
    default:
      return Ctx.event(eventName(pick(O.AlphabetSize)), value());
    }
  }

  const Expr *behavior(unsigned Depth, bool AllowRequests,
                       std::vector<RequestId> &Requests);

  std::string policyDecl(unsigned Index);
  std::string guardText();

  GeneratorOptions O;
  std::mt19937_64 Rng;
  hist::HistContext Ctx;
  RequestId NextRequest = 1;
  unsigned NextMuVar = 0;
};

/// Builds a random closed, tail-recursive, comm-guarded behavior. The
/// shape mirrors the grammar the parsers accept; every construct that can
/// break well-formedness (recursion) is emitted only in its guarded-tail
/// form, so the result always passes checkWellFormed.
const Expr *Gen::behavior(unsigned Depth, bool AllowRequests,
                          std::vector<RequestId> &Requests) {
  if (Depth == 0)
    return leaf();
  switch (pick(8)) {
  case 0: // Sequential composition.
    return Ctx.seq(behavior(Depth - 1, AllowRequests, Requests),
                   behavior(Depth - 1, AllowRequests, Requests));
  case 1:   // External choice: distinct input guards.
  case 2: { // Internal choice: distinct output guards.
    bool Ext = pick(2) == 0;
    unsigned Width = 1 + pick(std::min(O.ChoiceWidth, O.AlphabetSize));
    unsigned Base = pick(O.AlphabetSize);
    std::vector<ChoiceBranch> Branches;
    for (unsigned I = 0; I < Width; ++I) {
      Symbol Ch = Ctx.symbol(channelName(Base + I));
      CommAction G = Ext ? CommAction::input(Ch) : CommAction::output(Ch);
      Branches.push_back({G, behavior(Depth - 1, AllowRequests, Requests)});
    }
    return Ext ? Ctx.extChoice(std::move(Branches))
               : Ctx.intChoice(std::move(Branches));
  }
  case 3: // Policy framing.
    return Ctx.framing(somePolicyRef(),
                       behavior(Depth - 1, AllowRequests, Requests));
  case 4: // Service request (client side only).
    if (AllowRequests) {
      RequestId R = NextRequest++;
      Requests.push_back(R);
      PolicyRef Policy = chance(70) ? somePolicyRef() : PolicyRef();
      return Ctx.request(R, std::move(Policy),
                         behavior(Depth - 1, AllowRequests, Requests));
    }
    [[fallthrough]];
  case 5: { // Guarded tail recursion: mu h. a?.(... ; h).
    std::string Var = "h" + std::to_string(NextMuVar++);
    const Expr *Tail = Ctx.var(Var);
    if (chance(50))
      Tail = Ctx.seq(leaf(), Tail);
    const Expr *Body = Ctx.prefix(someComm(), Tail);
    return Ctx.mu(Var, Body);
  }
  case 6: // Communication prefix.
    return Ctx.prefix(someComm(),
                      behavior(Depth - 1, AllowRequests, Requests));
  default:
    return behavior(Depth - 1, AllowRequests, Requests);
  }
}

std::string Gen::guardText() {
  static const char *CmpOps[] = {"<", "<=", ">", ">=", "==", "!="};
  switch (pick(4)) {
  case 0:
    return std::string(" when x ") + CmpOps[pick(6)] + " " +
           std::to_string(value());
  case 1: // Compare against the policy's scalar parameter.
    return std::string(" when x ") + CmpOps[pick(6)] + " t";
  case 2:
    return " when x in {" + std::to_string(value()) + "," +
           std::to_string(value()) + "}";
  default:
    return " when x not in {" + std::to_string(value()) + "}";
  }
}

std::string Gen::policyDecl(unsigned Index) {
  unsigned NumStates = 2 + pick(3); // q0..q{NumStates-1}; last offending.
  unsigned NumEdges = 2 + pick(5);
  std::ostringstream OS;
  OS << "policy phi" << Index << "(t: int) {\n";
  OS << "  start q0;\n";
  OS << "  offending q" << (NumStates - 1) << ";\n";
  for (unsigned I = 0; I < NumEdges; ++I) {
    OS << "  q" << pick(NumStates) << " -> q" << pick(NumStates) << " on ";
    if (chance(20)) {
      OS << "*";
    } else {
      OS << eventName(pick(O.AlphabetSize));
      if (chance(70))
        OS << "(x)" << guardText();
    }
    OS << ";\n";
  }
  OS << "}";
  return OS.str();
}

GeneratedProgram Gen::run() {
  GeneratedProgram P;

  for (unsigned I = 0; I < O.NumPolicies; ++I)
    P.Decls.push_back(policyDecl(I));

  // Services carry no requests of their own, so generated plans stay
  // one-level and every request the verifier sees belongs to a client.
  for (unsigned I = 0; I < O.NumServices; ++I) {
    std::vector<RequestId> Ignored;
    const Expr *S = behavior(O.Depth, /*AllowRequests=*/false, Ignored);
    assert(Ctx.isClosed(S) && isWellFormed(Ctx, S) &&
           "generator emitted an ill-formed service");
    P.Decls.push_back("service s" + std::to_string(I) + " { " +
                      print(Ctx, S) + " }");
  }

  std::vector<std::vector<RequestId>> ClientRequests(O.NumClients);
  for (unsigned I = 0; I < O.NumClients; ++I) {
    std::vector<RequestId> &Requests = ClientRequests[I];
    const Expr *C = behavior(O.Depth, /*AllowRequests=*/true, Requests);
    if (Requests.empty()) { // Every client opens at least one session.
      RequestId R = NextRequest++;
      Requests.push_back(R);
      C = Ctx.request(R, somePolicyRef(), C);
    }
    assert(Ctx.isClosed(C) && isWellFormed(Ctx, C) &&
           "generator emitted an ill-formed client");
    P.Decls.push_back("client c" + std::to_string(I) + " { " +
                      print(Ctx, C) + " }");
  }

  // One declared plan per client, binding every request it opens to some
  // service (the verifier enumerates its own candidates; these exercise
  // the plan-declaration surface).
  for (unsigned I = 0; I < O.NumClients; ++I) {
    std::ostringstream OS;
    OS << "plan p" << I << " for c" << I << " {";
    for (RequestId R : ClientRequests[I])
      OS << " " << R << " -> s" << pick(O.NumServices) << ";";
    OS << " }";
    P.Decls.push_back(OS.str());
  }

  return P;
}

} // namespace

GeneratedProgram sus::fuzz::generateProgram(uint64_t Seed,
                                            const GeneratorOptions &Opts) {
  return Gen(Seed, Opts).run();
}
