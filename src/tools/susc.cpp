//===- tools/susc.cpp - The SUS command-line verifier ---------------------===//
///
/// \file
/// susc — parse a .sus file, verify every client against the repository
/// (declared plans first, then enumerated candidates), and report the
/// valid plans. Exit code 0 iff every client has at least one valid plan.
///
///   susc file.sus                verify everything
///   susc --plan pi1 file.sus    check one declared plan only
///   susc --run file.sus          also execute the first valid plan under
///                                the fused run-time monitor
///   susc --trace file.sus        print the execution trace with --run
///   susc --dot-policies file.sus print policy automata as Graphviz
///   susc lint file.sus           run the semantic lint passes
///
/// `susc lint` exits 0 when the file is clean, 1 when any finding was
/// reported (even warnings), and 2 on usage, I/O or parse errors — the
/// CI-friendly contract.
///
/// The verifier exits 0 when every client has a valid plan, 1 when some
/// client conclusively lacks one, 2 on usage/parse errors, and 3 when any
/// verdict is Inconclusive(resource) — a --deadline-ms / --max-*-states
/// budget tripped, or --explore truncated — so "out of budget" is never
/// mistaken for "refuted".
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "core/Session.h"
#include "daemon/Protocol.h"
#include "daemon/Socket.h"
#include "fuzz/Differential.h"
#include "hist/Bisim.h"
#include "hist/Printer.h"
#include "hist/TransitionSystem.h"
#include "net/Explorer.h"
#include "net/Interpreter.h"
#include "support/Metrics.h"
#include "support/ParseCount.h"
#include "support/TenantBudget.h"
#include "support/Trace.h"
#include "validity/CostAnalysis.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

using namespace sus;

namespace {

/// The options every file-taking mode (verify, lint, plan) shares.
struct CommonOptions {
  /// --help/-h was seen: the caller prints usage and exits 0. Kept as a
  /// flag (instead of exiting inside the parser) so no library-level
  /// code calls std::exit — which is also what concurrency-mt-unsafe
  /// expects of functions that may one day run inside susd.
  bool Help = false;

  std::string InputPath;
  std::string TraceOut;   ///< Chrome trace_event JSON output path.
  std::string MetricsOut; ///< sus-metrics-v1 JSON output path.
};

struct CliOptions : CommonOptions {
  /// "Flag absent" sentinel for --max-states.
  static constexpr uint64_t NoLimit = ~uint64_t(0);

  std::string OnlyPlan;
  std::string DotLts;
  std::string BisimA, BisimB;
  bool Run = false;
  bool Trace = false;
  bool DotPolicies = false;
  bool Enumerate = true;
  bool Cost = false;
  bool Explore = false;
  TenantBudget Budget; ///< --deadline-ms / --max-*-states
  uint64_t MaxExploreStates = NoLimit;  ///< --max-states (--explore cap)
  DiagFormat Format = DiagFormat::Text;
};

void printUsage(std::ostream &OS) {
  OS << "usage: susc [options] file.sus\n"
        "       susc lint [lint options] file.sus\n"
        "       susc plan [plan options] file.sus\n"
        "       susc fuzz [fuzz options]\n"
        "       susc --connect SOCKET VERB [key=value]...\n"
        "  --plan NAME      check only the declared plan NAME\n"
        "  --run            execute the first valid plan of each client\n"
        "                   under the fused run-time monitor\n"
        "  --trace          with --run, print every applied step\n"
        "  --dot-policies   print client policies as Graphviz\n"
        "  --dot-lts NAME   print the LTS of a declared behaviour\n"
        "  --bisim A B      check two declared behaviours bisimilar\n"
        "  --cost           worst-case event count per behaviour\n"
        "  --explore        exhaustively explore the network under the\n"
        "                   declared plans (capacity-deadlock search)\n"
        "  --no-enumerate   only check declared plans\n"
        "  --deadline-ms N  stop verifying after N milliseconds; verdicts\n"
        "                   not reached in time are Inconclusive(resource)\n"
        "  --max-product-states N  per-check state budget for product /\n"
        "                   emptiness explorations\n"
        "  --max-states N   state cap for --explore (default 262144)\n"
        "  --trace-out F    write a Chrome trace_event JSON span trace to F\n"
        "  --metrics-out F  write pipeline metrics JSON (sus-metrics-v1) to F\n"
        "  --diag-format=F  render diagnostics as 'text' or 'json'\n"
        "exit codes: 0 all clients have valid plans, 1 some client has\n"
        "            none, 2 usage/parse error, 3 inconclusive (resource\n"
        "            budget tripped or exploration truncated)\n"
        "run 'susc lint --help' for the lint options\n";
}

void printLintUsage(std::ostream &OS) {
  OS << "usage: susc lint [options] file.sus\n"
        "  --diag-format=F  render findings as 'text' or 'json'\n"
        "  -Werror          promote every lint warning to an error\n"
        "  -Werror=ID       promote the pass ID to an error\n"
        "  --disable=ID     suppress the pass ID entirely\n"
        "  --list-passes    list every pass with its ID and exit\n"
        "  --trace-out F    write a Chrome trace_event JSON span trace to F\n"
        "  --metrics-out F  write pipeline metrics JSON (sus-metrics-v1) to F\n"
        "exit codes: 0 clean, 1 findings reported, 2 usage/parse error\n";
}

void printPlanUsage(std::ostream &OS) {
  OS << "usage: susc plan [options] file.sus\n"
        "  --index          enumerate through the ServiceIndex (candidate\n"
        "                   buckets + compliance pre-screens; default)\n"
        "  --no-index       scan the whole repository per request (the\n"
        "                   paper's baseline; identical plan sets)\n"
        "  --churn N        churn replay: N rounds, each removing and then\n"
        "                   re-publishing one seeded-randomly picked\n"
        "                   service, repairing the reports incrementally\n"
        "                   and reporting p50/p99 repair latency\n"
        "  --seed N         seed for the churn picks (default 1)\n"
        "  --deadline-ms N / --max-product-states N\n"
        "                   resource budgets; cut-short repairs are\n"
        "                   Inconclusive(resource), never wrong\n"
        "  --trace-out F    write a Chrome trace_event JSON span trace to F\n"
        "  --metrics-out F  write pipeline metrics JSON (sus-metrics-v1) to F\n"
        "exit codes: 0 all clients have valid plans, 1 some client has\n"
        "            none, 2 usage/parse error, 3 inconclusive\n";
}

/// Consumes the value operand of \p Flag. Emits the "missing value"
/// diagnostic (rather than falling through to "unknown option" or silently
/// eating the next flag) when \p Flag is the last argument.
bool takeValue(int Argc, char **Argv, int &I, const std::string &Flag,
               std::string &Out) {
  if (I + 1 >= Argc) {
    std::cerr << "susc: missing value for '" << Flag << "'\n";
    return false;
  }
  Out = Argv[++I];
  return true;
}

/// Parses a non-negative integer operand of \p Flag. \p MinValue guards
/// flags where 0 is meaningless.
bool parseCountValue(const std::string &Flag, const std::string &Value,
                     uint64_t MinValue, uint64_t &Out) {
  uint64_t N = 0;
  CountParse R = parseCount(Value, N);
  if (R == CountParse::NotDigits) {
    std::cerr << "susc: " << Flag << " expects a non-negative integer, got '"
              << Value << "'\n";
    return false;
  }
  if (R == CountParse::OutOfRange) {
    std::cerr << "susc: " << Flag << " value '" << Value
              << "' is out of range\n";
    return false;
  }
  if (N < MinValue) {
    std::cerr << "susc: " << Flag << " must be at least " << MinValue
              << ", got '" << Value << "'\n";
    return false;
  }
  Out = N;
  return true;
}

/// Consumes a resource-budget flag (--deadline-ms, --max-product-states:
/// the TenantBudget field names as flags) into \p Budget. std::nullopt
/// when \p Arg is no budget flag, else whether its value parsed.
std::optional<bool> takeBudgetFlag(int Argc, char **Argv, int &I,
                                   const std::string &Arg,
                                   TenantBudget &Budget) {
  if (Arg.rfind("--", 0) != 0)
    return std::nullopt;
  std::string Key = Arg.substr(2);
  std::replace(Key.begin(), Key.end(), '-', '_');
  uint64_t *Field = Budget.field(Key);
  if (!Field)
    return std::nullopt;
  std::string Value;
  return takeValue(Argc, Argv, I, Arg, Value) &&
         parseCountValue(Arg, Value, /*MinValue=*/0, *Field);
}

/// Reads the input file; false after a "cannot open" message.
bool readInput(const std::string &Path, std::string &Source) {
  if (core::readFile(Path, Source))
    return true;
  std::cerr << "susc: cannot open '" << Path << "'\n";
  return false;
}

/// Parses --diag-format=F; returns false (with a message) on a bad value.
bool parseDiagFormat(const std::string &Arg, DiagFormat &Format) {
  std::string Value = Arg.substr(Arg.find('=') + 1);
  if (Value == "text") {
    Format = DiagFormat::Text;
    return true;
  }
  if (Value == "json") {
    Format = DiagFormat::Json;
    return true;
  }
  std::cerr << "susc: --diag-format expects 'text' or 'json', got '" << Value
            << "'\n";
  return false;
}

/// The argument loop of the file-taking modes, from Argv[First]. \p Flag
/// parses the mode's own flags: it returns std::nullopt for an argument
/// it does not know, else whether the argument (and any value it
/// consumed through its index) parsed. The shared flags, the input path
/// and the errors are handled here; \p Usage is printed on an unknown
/// option or a missing input. \p InputOptional is read after the loop
/// (lint's --list-passes needs no input).
template <typename FlagFn>
bool parseCli(int Argc, char **Argv, int First, CommonOptions &Opts,
              void (*Usage)(std::ostream &), const bool &InputOptional,
              FlagFn Flag) {
  for (int I = First; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (std::optional<bool> Ok = Flag(I, Arg)) {
      if (!*Ok)
        return false;
    } else if (Arg == "--trace-out") {
      if (!takeValue(Argc, Argv, I, Arg, Opts.TraceOut))
        return false;
    } else if (Arg == "--metrics-out") {
      if (!takeValue(Argc, Argv, I, Arg, Opts.MetricsOut))
        return false;
    } else if (Arg == "--help" || Arg == "-h") {
      Opts.Help = true;
      return true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "susc: unknown option '" << Arg << "'\n";
      Usage(std::cerr);
      return false;
    } else if (Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      std::cerr << "susc: multiple input files\n";
      return false;
    }
  }
  if (Opts.InputPath.empty() && !InputOptional) {
    Usage(std::cerr);
    return false;
  }
  return true;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  return parseCli(
      Argc, Argv, 1, Opts, printUsage, false,
      [&](int &I, const std::string &Arg) -> std::optional<bool> {
        std::string Value;
        auto Take = [&](std::string &Out) {
          return takeValue(Argc, Argv, I, Arg, Out);
        };
        if (Arg == "--plan")
          return Take(Opts.OnlyPlan);
        if (Arg == "--dot-lts")
          return Take(Opts.DotLts);
        if (Arg == "--bisim")
          return Take(Opts.BisimA) && Take(Opts.BisimB);
        if (Arg == "--max-states")
          return Take(Value) && parseCountValue(Arg, Value, /*MinValue=*/1,
                                                Opts.MaxExploreStates);
        if (Arg.rfind("--diag-format=", 0) == 0)
          return parseDiagFormat(Arg, Opts.Format);
        for (auto [Name, Switch] :
             {std::pair{"--cost", &Opts.Cost}, {"--explore", &Opts.Explore},
              {"--run", &Opts.Run}, {"--trace", &Opts.Trace},
              {"--dot-policies", &Opts.DotPolicies}})
          if (Arg == Name) {
            *Switch = true;
            return true;
          }
        if (Arg == "--no-enumerate") {
          Opts.Enumerate = false;
          return true;
        }
        return takeBudgetFlag(Argc, Argv, I, Arg, Opts.Budget);
      });
}

int runTool(const CliOptions &Opts) {
  // Arm the governor first thing, so --deadline-ms covers the whole run
  // (parsing included), not just the verification loops.
  std::shared_ptr<ResourceGovernor> Governor = Opts.Budget.governor();

  std::string Source;
  if (!readInput(Opts.InputPath, Source))
    return 2;
  core::VerifierOptions VOpts;
  VOpts.Governor = Governor;
  core::Session S;
  DiagnosticEngine Diags;
  bool Parsed = S.open(std::move(Source), Opts.InputPath, VOpts, Diags);
  Diags.print(std::cerr, Opts.Format);
  if (!Parsed)
    return 2;
  hist::HistContext &Ctx = S.ctx();
  const syntax::SusFile &File = S.file();

  // Resolve a declared behaviour by name (services first, then clients).
  auto FindBehavior = [&](const std::string &Name) -> const hist::Expr * {
    Symbol Sym = Ctx.interner().lookup(Name);
    if (!Sym.isValid())
      return nullptr;
    if (const hist::Expr *E = File.Repo.find(Sym))
      return E;
    return File.findClient(Sym);
  };

  if (!Opts.DotLts.empty()) {
    const hist::Expr *E = FindBehavior(Opts.DotLts);
    if (!E) {
      std::cerr << "susc: no service or client named '" << Opts.DotLts
                << "'\n";
      return 2;
    }
    hist::TransitionSystem Ts(Ctx, E);
    hist::printDot(Ctx, Ts, std::cout, Opts.DotLts);
    return 0;
  }

  if (!Opts.BisimA.empty()) {
    const hist::Expr *A = FindBehavior(Opts.BisimA);
    const hist::Expr *B = FindBehavior(Opts.BisimB);
    if (!A || !B) {
      std::cerr << "susc: unknown behaviour name\n";
      return 2;
    }
    bool Equal = hist::bisimilar(Ctx, A, B);
    std::cout << Opts.BisimA << (Equal ? " ~ " : " !~ ") << Opts.BisimB
              << "\n";
    return Equal ? 0 : 1;
  }

  if (Opts.Explore) {
    // Assemble the network from each client's first declared plan.
    std::vector<net::NetworkComponent> Components;
    for (const auto &[Name, Client] : File.Clients) {
      const syntax::PlanDecl *Found = nullptr;
      for (const syntax::PlanDecl &Decl : File.Plans)
        if (Decl.Client == Name) {
          Found = &Decl;
          break;
        }
      if (!Found) {
        std::cerr << "susc: client '" << Ctx.interner().text(Name)
                  << "' has no declared plan; --explore needs one\n";
        return 2;
      }
      Components.push_back({Name, Client, Found->Pi});
    }
    net::ExplorerOptions EOpts;
    if (Opts.MaxExploreStates != CliOptions::NoLimit)
      EOpts.MaxStates = static_cast<size_t>(Opts.MaxExploreStates);
    net::ExplorationResult R =
        net::exploreNetwork(Ctx, File.Repo, Components, EOpts);
    std::cout << "explored " << R.States << " network states"
              << (R.Exhaustive ? "" : " (truncated)") << "\n";
    // A truncated search witnesses what it found, but a negative answer
    // would need the states it never reached.
    const char *Unknown = "unknown (truncated)";
    std::cout << "all components can complete: "
              << (R.CanComplete ? "yes" : R.Exhaustive ? "NO" : Unknown)
              << "\n";
    std::cout << "deadlock reachable: "
              << (R.DeadlockReachable ? "YES"
                  : R.Exhaustive      ? "no"
                                      : Unknown)
              << "\n";
    for (const std::string &Line : R.DeadlockTrace)
      std::cout << "  --> " << Line << "\n";
    if (!R.Exhaustive) {
      // A truncated search proves nothing either way: its "no deadlock"
      // would be silently unsound, so report it loudly and distinctly.
      std::cerr << "susc: exploration truncated at " << R.States
                << " states; pass --max-states to raise the bound\n";
      return 3;
    }
    return (R.CanComplete && !R.DeadlockReachable) ? 0 : 1;
  }

  if (Opts.Cost) {
    // Uniform model: every access event costs 1 (worst-case event count).
    validity::CostModel Model;
    Model.DefaultCost = 1;
    auto Show = [&](Symbol Name, const hist::Expr *E) {
      validity::CostResult R = validity::maxEventCost(Ctx, E, Model);
      std::cout << Ctx.interner().text(Name) << ": ";
      if (R.Bounded)
        std::cout << "worst-case " << R.MaxCost << " event(s)\n";
      else
        std::cout << "unbounded (a costly loop is reachable)\n";
    };
    for (const auto &[Loc, Service] : File.Repo.services())
      Show(Loc, Service);
    for (const auto &[Name, Client] : File.Clients)
      Show(Name, Client);
    return 0;
  }

  if (Opts.DotPolicies) {
    // There is no registry iteration API by design (policies are looked
    // up by name); print the ones referenced by clients instead.
    for (const auto &[Name, Client] : File.Clients) {
      (void)Name;
      for (const plan::RequestSite &Site : plan::extractRequests(Client)) {
        if (Site.policy().isTrivial())
          continue;
        if (const policy::UsageAutomaton *A =
                File.Registry.find(Site.policy().Name))
          A->printDot(Ctx.interner(), std::cout);
      }
    }
  }

  core::ExitTally Tally;
  for (const auto &[Name, Client] : File.Clients) {
    core::ClientOutcome Outcome =
        S.verifyClient(Name, Client, Opts.OnlyPlan, Opts.Enumerate, std::cout);
    Tally.add(Outcome.FirstValid.has_value(), Outcome.Inconclusive);
    if (!Outcome.FirstValid)
      continue;

    if (Opts.Run) {
      net::Interpreter Interp(Ctx, File.Repo, File.Registry,
                              {{Name, Client, *Outcome.FirstValid}});
      net::RunStats Stats = Interp.run(/*Seed=*/1);
      std::cout << "run: " << Stats.StepsTaken << " steps, "
                << (Stats.AllCompleted ? "completed" : "stuck")
                << ", history: "
                << Interp.history(0).str(Ctx.interner()) << "\n";
      if (Opts.Trace)
        for (const std::string &Line : Interp.trace())
          std::cout << "  " << Line << "\n";
    }
  }
  return Tally.code();
}

//===----------------------------------------------------------------------===//
// susc lint
//===----------------------------------------------------------------------===//

struct LintCliOptions : CommonOptions {
  analysis::LintOptions Lint;
  DiagFormat Format = DiagFormat::Text;
  bool ListPasses = false;
};

bool parseLintArgs(int Argc, char **Argv, LintCliOptions &Opts) {
  // Argv[1] is the "lint" subcommand itself.
  return parseCli(
      Argc, Argv, 2, Opts, printLintUsage, Opts.ListPasses,
      [&](int &, const std::string &Arg) -> std::optional<bool> {
        if (Arg.rfind("--diag-format=", 0) == 0)
          return parseDiagFormat(Arg, Opts.Format);
        if (Arg == "-Werror")
          Opts.Lint.WarningsAsErrors = true;
        else if (Arg.rfind("-Werror=", 0) == 0)
          Opts.Lint.ErrorIds.insert(Arg.substr(std::string("-Werror=").size()));
        else if (Arg.rfind("--disable=", 0) == 0)
          Opts.Lint.DisabledIds.insert(
              Arg.substr(std::string("--disable=").size()));
        else if (Arg == "--list-passes")
          Opts.ListPasses = true;
        else
          return std::nullopt;
        return true;
      });
}

int runLint(const LintCliOptions &Opts) {
  if (Opts.ListPasses) {
    for (const analysis::LintPass *Pass : analysis::allLintPasses())
      std::cout << Pass->id() << "  [" << Pass->category() << "]  "
                << Pass->description() << "\n";
    return 0;
  }

  std::string Source;
  if (!readInput(Opts.InputPath, Source))
    return 2;
  core::Session S;
  DiagnosticEngine Diags;
  if (!S.open(std::move(Source), Opts.InputPath, {}, Diags)) {
    Diags.print(std::cout, Opts.Format);
    return 2;
  }

  analysis::LintContext LC(S.ctx(), S.file(), Opts.InputPath, Opts.Lint,
                          Diags);
  unsigned Findings = analysis::runLintPasses(LC);
  Diags.print(std::cout, Opts.Format);
  if (Opts.Format == DiagFormat::Text)
    std::cout << Opts.InputPath << ": " << Findings << " finding(s)\n";
  return Findings ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// susc plan
//===----------------------------------------------------------------------===//

struct PlanCliOptions : CommonOptions {
  bool UseIndex = true;
  uint64_t ChurnRounds = 0;
  uint64_t Seed = 1;
  TenantBudget Budget;
};

bool parsePlanArgs(int Argc, char **Argv, PlanCliOptions &Opts) {
  // Argv[1] is the "plan" subcommand itself.
  return parseCli(
      Argc, Argv, 2, Opts, printPlanUsage, false,
      [&](int &I, const std::string &Arg) -> std::optional<bool> {
        std::string Value;
        auto Take = [&] { return takeValue(Argc, Argv, I, Arg, Value); };
        if (Arg == "--index" || Arg == "--no-index") {
          Opts.UseIndex = Arg == "--index";
          return true;
        }
        if (Arg == "--churn")
          return Take() && parseCountValue(Arg, Value, /*MinValue=*/1,
                                           Opts.ChurnRounds);
        if (Arg == "--seed")
          return Take() &&
                 parseCountValue(Arg, Value, /*MinValue=*/0, Opts.Seed);
        return takeBudgetFlag(Argc, Argv, I, Arg, Opts.Budget);
      });
}

int runPlan(const PlanCliOptions &Opts) {
  core::VerifierOptions VOpts;
  VOpts.Governor = Opts.Budget.governor(); // Armed before the parse.
  VOpts.UseIndex = Opts.UseIndex;
  std::string Source;
  if (!readInput(Opts.InputPath, Source))
    return 2;
  core::Session S;
  DiagnosticEngine Diags;
  bool Parsed = S.open(std::move(Source), Opts.InputPath, VOpts, Diags);
  Diags.print(std::cerr, DiagFormat::Text);
  if (!Parsed)
    return 2;
  core::Verifier &Verifier = S.verifier();

  core::ExitTally Tally;
  uint64_t Rng = Opts.Seed; // One churn LCG across all clients.
  for (const auto &[Name, Client] : S.file().Clients) {
    std::cout << "== client " << S.ctx().interner().text(Name) << " ==\n";

    core::RepairSession Repair(Verifier, Client, Name);
    const core::VerificationReport &Baseline = Repair.verify();
    std::cout << "candidate plans: " << Baseline.CandidateCount
              << " (bindings tried: " << Baseline.BindingsTried << ")";
    if (Baseline.Truncated)
      std::cout << " [truncated]";
    if (Baseline.EnumerationExhausted)
      std::cout << " [enumeration inconclusive: "
                << resourceKindName(Baseline.EnumerationExhausted->Which)
                << "]";
    std::cout << "\n";
    std::cout << "valid plans: " << Baseline.validPlans().size() << "\n";
    if (const plan::ServiceIndex *Index =
            Opts.UseIndex ? Verifier.index() : nullptr) {
      plan::IndexStats IStats = Index->stats();
      std::cout << "index: " << Index->size() << " services, "
                << IStats.Lookups << " lookups (" << IStats.Hits
                << " memo hits), " << IStats.Candidates
                << " candidates, prescreen rejects: "
                << IStats.AlphabetRejects << " alphabet + "
                << IStats.FirstStepRejects << " first-step\n";
    }

    bool Completed = true;
    if (Opts.ChurnRounds > 0) {
      if (S.file().Repo.size() == 0) {
        std::cerr << "susc: --churn needs a non-empty repository\n";
        return 2;
      }
      Completed = S.replayChurn(Repair, Opts.ChurnRounds, Rng, std::cout);
    }

    const core::VerificationReport &Final = Repair.report();
    Tally.add(!Final.validPlans().empty(),
              !Completed || Final.anyInconclusive());
  }
  return Tally.code();
}

//===----------------------------------------------------------------------===//
// susc fuzz
//===----------------------------------------------------------------------===//

struct FuzzCliOptions {
  bool Help = false; ///< --help/-h: print usage, exit 0 (see CommonOptions).
  uint64_t Seeds = 100;
  uint64_t BaseSeed = 0;
  bool SeedSet = false; ///< --seed was given explicitly.
  bool Replay = false;
  bool NoChaos = false;
  uint64_t Depth = 4;
  uint64_t Alphabet = 3;
  uint64_t Policies = 2;
  uint64_t Services = 3;
  uint64_t Clients = 2;
  uint64_t Width = 2;
  uint64_t TraceLen = 48;
};

void printFuzzUsage(std::ostream &OS) {
  OS << "usage: susc fuzz [options]\n"
        "  --seeds N        sweep N consecutive seeds (default 100)\n"
        "  --seed N         first (or, with --replay, only) seed\n"
        "  --replay         re-run just --seed (which must be given\n"
        "                   explicitly), printing the generated program\n"
        "                   and every oracle verdict\n"
        "  --no-chaos       skip the governor chaos soak\n"
        "  --depth N / --alphabet N / --policies N / --services N /\n"
        "  --clients N / --width N   generator difficulty knobs\n"
        "  --trace-len N    labels fed to the monitor pair and steps per\n"
        "                   interpreter run (default 48)\n"
        "exit codes: 0 every seed clean, 1 divergence or parser-battery\n"
        "            failure, 2 usage error\n";
}

bool parseFuzzArgs(int Argc, char **Argv, FuzzCliOptions &Opts) {
  // Argv[1] is the "fuzz" subcommand itself.
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Count = [&](uint64_t MinValue, uint64_t &Out) {
      std::string Value;
      return takeValue(Argc, Argv, I, Arg, Value) &&
             parseCountValue(Arg, Value, MinValue, Out);
    };
    if (Arg == "--seeds") {
      if (!Count(1, Opts.Seeds))
        return false;
    } else if (Arg == "--seed") {
      if (!Count(0, Opts.BaseSeed))
        return false;
      Opts.SeedSet = true;
    } else if (Arg == "--replay") {
      Opts.Replay = true;
    } else if (Arg == "--no-chaos") {
      Opts.NoChaos = true;
    } else if (Arg == "--depth") {
      if (!Count(1, Opts.Depth))
        return false;
    } else if (Arg == "--alphabet") {
      if (!Count(1, Opts.Alphabet))
        return false;
    } else if (Arg == "--policies") {
      if (!Count(1, Opts.Policies))
        return false;
    } else if (Arg == "--services") {
      if (!Count(1, Opts.Services))
        return false;
    } else if (Arg == "--clients") {
      if (!Count(1, Opts.Clients))
        return false;
    } else if (Arg == "--width") {
      if (!Count(1, Opts.Width))
        return false;
    } else if (Arg == "--trace-len") {
      if (!Count(1, Opts.TraceLen))
        return false;
    } else if (Arg == "--help" || Arg == "-h") {
      Opts.Help = true;
      return true;
    } else {
      std::cerr << "susc: unknown option '" << Arg
                << "' (susc fuzz takes no input file)\n";
      printFuzzUsage(std::cerr);
      return false;
    }
  }
  // --replay without --seed used to silently replay the default seed 0 —
  // almost never what a bug report meant. Demand the seed explicitly.
  if (Opts.Replay && !Opts.SeedSet) {
    std::cerr << "susc: --replay requires an explicit --seed "
                 "(the failing seed printed by the sweep)\n";
    return false;
  }
  return true;
}

fuzz::FuzzOptions fuzzOptions(const FuzzCliOptions &Opts) {
  fuzz::FuzzOptions O;
  O.Gen.Depth = static_cast<unsigned>(Opts.Depth);
  O.Gen.AlphabetSize = static_cast<unsigned>(Opts.Alphabet);
  O.Gen.NumPolicies = static_cast<unsigned>(Opts.Policies);
  O.Gen.NumServices = static_cast<unsigned>(Opts.Services);
  O.Gen.NumClients = static_cast<unsigned>(Opts.Clients);
  O.Gen.ChoiceWidth = static_cast<unsigned>(Opts.Width);
  O.MonitorTraceLen = static_cast<unsigned>(Opts.TraceLen);
  O.Chaos = !Opts.NoChaos;
  return O;
}

void printDivergences(const std::vector<fuzz::Divergence> &Ds) {
  for (const fuzz::Divergence &D : Ds)
    std::cout << "  [" << D.Check << "] " << D.Detail << "\n";
}

int runFuzz(const FuzzCliOptions &Opts) {
  // The deterministic adversarial battery runs once per invocation: it is
  // what demonstrably catches the lexer-overflow and parser-depth bugs if
  // their fixes regress.
  std::vector<fuzz::Divergence> Battery = fuzz::parserTorture();
  if (!Battery.empty()) {
    std::cout << "fuzz: parser torture battery FAILED ("
              << Battery.size() << " finding(s)):\n";
    printDivergences(Battery);
    return 1;
  }

  fuzz::FuzzOptions O = fuzzOptions(Opts);

  if (Opts.Replay) {
    fuzz::SeedReport R = fuzz::runSeed(Opts.BaseSeed, O);
    std::cout << "=== seed " << R.Seed << " program ===\n"
              << R.Program.source() << "=== oracles ===\n";
    if (R.clean()) {
      std::cout << "seed " << R.Seed << ": all oracles agree\n";
      return 0;
    }
    std::cout << R.Divergences.size() << " divergence(s):\n";
    printDivergences(R.Divergences);
    std::cout << "=== minimized reproducer ===\n" << R.MinimizedSource;
    return 1;
  }

  for (uint64_t S = Opts.BaseSeed; S < Opts.BaseSeed + Opts.Seeds; ++S) {
    fuzz::SeedReport R = fuzz::runSeed(S, O);
    if (!R.clean()) {
      std::cout << "fuzz: seed " << S << " FAILED with "
                << R.Divergences.size() << " divergence(s):\n";
      printDivergences(R.Divergences);
      std::cout << "=== minimized reproducer ===\n"
                << R.MinimizedSource
                << "replay with: susc fuzz --seed " << S << " --replay\n";
      return 1;
    }
  }
  std::cout << "fuzz: " << Opts.Seeds << " seed(s) starting at "
            << Opts.BaseSeed << ", parser battery + differential oracles"
            << (O.Chaos ? " + chaos soak" : "") << ": all clean\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// Observability plumbing
//===----------------------------------------------------------------------===//

/// Turns the tracer/registry on ahead of the tool run when the matching
/// output flag was given. With both flags absent this is a no-op and every
/// instrumentation point in the pipeline stays a single atomic load.
void enableObservability(const CommonOptions &Opts) {
  if (!Opts.TraceOut.empty())
    trace::enable();
  if (!Opts.MetricsOut.empty())
    metrics::enable();
}

/// Writes the trace/metrics files after the tool ran. Returns false (with a
/// diagnostic) if an output file cannot be written; the caller folds that
/// into exit code 2 unless the run itself already failed harder.
bool writeObservability(const CommonOptions &Opts) {
  bool Ok = true;
  auto WriteTo = [&Ok](const std::string &Path, auto &&Emit) {
    std::ofstream Out(Path);
    if (!Out) {
      std::cerr << "susc: cannot write '" << Path << "'\n";
      Ok = false;
      return;
    }
    Emit(Out);
    if (!Out.good()) {
      std::cerr << "susc: error writing '" << Path << "'\n";
      Ok = false;
    }
  };
  if (!Opts.TraceOut.empty())
    WriteTo(Opts.TraceOut,
            [](std::ostream &OS) { trace::writeChromeTrace(OS); });
  if (!Opts.MetricsOut.empty())
    WriteTo(Opts.MetricsOut, [](std::ostream &OS) { metrics::writeJson(OS); });
  return Ok;
}

/// Runs one file-taking mode: parse, --help, then \p Run between the
/// observability set-up and write-out.
template <typename Options>
int runMode(int Argc, char **Argv, bool (*Parse)(int, char **, Options &),
            void (*Usage)(std::ostream &), int (*Run)(const Options &)) {
  Options Opts;
  if (!Parse(Argc, Argv, Opts))
    return 2;
  if (Opts.Help) {
    Usage(std::cout);
    return 0;
  }
  enableObservability(Opts);
  int Code = Run(Opts);
  if (!writeObservability(Opts) && Code == 0)
    Code = 2;
  return Code;
}

//===----------------------------------------------------------------------===//
// susc --connect (daemon client mode)
//===----------------------------------------------------------------------===//

/// Ceiling on a daemon response payload the client will buffer. Far above
/// any real report; a garbage header cannot balloon the client.
constexpr uint64_t MaxResponsePayload = uint64_t(1) << 30;

void printConnectUsage(std::ostream &OS) {
  OS << "usage: susc --connect SOCKET VERB [key=value]...\n"
        "  sends one request to a listening susd and exits with the code\n"
        "  the daemon returns (the plain susc exit contract)\n"
        "  verbs: ping, stats, verify, lint, churn, snapshot, shutdown\n"
        "  common keys: client=NAME plan=NAME tenant=NAME deadline_ms=N\n"
        "               max_product_states=N rounds=N seed=N file=PATH\n"
        "               enumerate=0\n";
}

int runConnect(int Argc, char **Argv) {
  if (Argc >= 3 && (std::string(Argv[2]) == "--help" ||
                    std::string(Argv[2]) == "-h")) {
    printConnectUsage(std::cout);
    return 0;
  }
  if (Argc < 4) {
    printConnectUsage(std::cerr);
    return 2;
  }
  std::string SocketPath = Argv[2];
  daemon::Request Req;
  Req.Verb = Argv[3];
  for (int I = 4; I < Argc; ++I) {
    std::string Arg = Argv[I];
    size_t Eq = Arg.find('=');
    if (Eq == std::string::npos || Eq == 0) {
      std::cerr << "susc: request parameter '" << Arg
                << "' is not key=value\n";
      return 2;
    }
    Req.Params[Arg.substr(0, Eq)] = Arg.substr(Eq + 1);
  }

  std::string Err;
  int Fd = daemon::connectTo(SocketPath, Err);
  if (Fd < 0) {
    std::cerr << "susc: " << Err << "\n";
    return 2;
  }
  int Code = 2;
  std::string Header, Body;
  int Exit = 2;
  uint64_t PayloadLen = 0;
  // No deadline: a cold full verify can take seconds.
  daemon::ConnectionReader Reader(Fd);
  if (!daemon::writeAll(Fd, daemon::formatRequest(Req) + "\n", Err) ||
      !Reader.readLine(Header, /*MaxLen=*/4096, Err)) {
    std::cerr << "susc: " << Err << "\n";
  } else if (!daemon::parseResponseHeader(Header, Exit, PayloadLen, Err)) {
    std::cerr << "susc: " << Err << "\n";
  } else if (PayloadLen > MaxResponsePayload) {
    std::cerr << "susc: response payload of " << PayloadLen
              << " bytes exceeds the client cap\n";
  } else if (!Reader.readExact(PayloadLen, Body, Err)) {
    std::cerr << "susc: " << Err << "\n";
  } else {
    std::cout << Body;
    Code = Exit;
  }
  daemon::closeFd(Fd);
  return Code;
}

/// True when \p Arg was almost certainly meant as a subcommand, not an
/// input path: no option prefix, no path separator or extension, and no
/// file of that name exists. Keeps `susc plna file.sus` a crisp
/// "unknown subcommand" instead of "cannot open 'plna'", while
/// extensionless-but-real input files still verify.
bool looksLikeSubcommand(const std::string &Arg) {
  if (Arg.empty() || Arg[0] == '-')
    return false;
  if (Arg.find('/') != std::string::npos ||
      Arg.find('.') != std::string::npos)
    return false;
  return !std::ifstream(Arg).good();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1 && std::string(Argv[1]) == "--connect")
    return runConnect(Argc, Argv);
  if (Argc > 1 && std::string(Argv[1]) == "plan")
    return runMode(Argc, Argv, parsePlanArgs, printPlanUsage, runPlan);
  if (Argc > 1 && std::string(Argv[1]) == "lint")
    return runMode(Argc, Argv, parseLintArgs, printLintUsage, runLint);
  if (Argc > 1 && std::string(Argv[1]) == "fuzz") {
    FuzzCliOptions Opts;
    if (!parseFuzzArgs(Argc, Argv, Opts))
      return 2;
    if (Opts.Help) {
      printFuzzUsage(std::cout);
      return 0;
    }
    return runFuzz(Opts);
  }
  if (Argc > 1 && looksLikeSubcommand(Argv[1])) {
    std::cerr << "susc: unknown subcommand '" << Argv[1]
              << "'; valid subcommands are 'fuzz', 'lint' and 'plan' (or "
                 "pass a .sus file to verify)\n";
    return 2;
  }
  return runMode(Argc, Argv, parseArgs, printUsage, runTool);
}
