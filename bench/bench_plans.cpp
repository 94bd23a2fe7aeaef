//===- bench/bench_plans.cpp - B3+B9: plan search at repository scale -----===//
///
/// \file
/// Experiment B3 (DESIGN.md): cost of constructing valid plans (§5) as the
/// repository and the request count grow; the crossover between exhaustive
/// enumeration and compliance-pruned search.
///
/// Experiment B9 (DESIGN.md §10): repository-scale candidate selection —
/// indexed lookup vs full scan over a 10k-service multi-family repository
/// (plans-verified/sec), index construction cost, and heavy-churn
/// incremental repair (worker sweep, p99 repair latency, re-verified
/// fraction).
///
//===----------------------------------------------------------------------===//

#include "MetricsOut.h"
#include "Workloads.h"
#include "core/Repair.h"
#include "core/Verifier.h"
#include "hist/Printer.h"
#include "syntax/FileParser.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace sus;
using namespace sus::bench;

namespace {

//===----------------------------------------------------------------------===//
// B3: plan construction scaling (unchanged seed benchmarks)
//===----------------------------------------------------------------------===//

/// Pure enumeration (no checking): candidate explosion R^Q.
void BM_EnumerateOnly(benchmark::State &State) {
  unsigned R = static_cast<unsigned>(State.range(0));
  unsigned Q = static_cast<unsigned>(State.range(1));
  for (auto _ : State) {
    hist::HistContext Ctx;
    plan::Repository Repo = echoRepository(Ctx, R, 0);
    const hist::Expr *Client = echoClient(Ctx, Q);
    auto Result = plan::enumeratePlans(Client, Repo);
    benchmark::DoNotOptimize(Result.Plans.size());
    State.counters["plans"] = static_cast<double>(Result.Plans.size());
  }
}
BENCHMARK(BM_EnumerateOnly)
    ->Args({2, 2})
    ->Args({4, 2})
    ->Args({8, 2})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Args({16, 3});

/// The full §5 procedure: exhaustive (check every candidate) vs pruned
/// (discard non-compliant bindings during enumeration). Half of the
/// repository is non-compliant, so pruning cuts the space by 2^Q.
void BM_VerifyClient(benchmark::State &State) {
  unsigned R = static_cast<unsigned>(State.range(0));
  unsigned Q = static_cast<unsigned>(State.range(1));
  bool Prune = State.range(2) != 0;
  for (auto _ : State) {
    hist::HistContext Ctx;
    plan::Repository Repo = echoRepository(Ctx, R, R / 2);
    policy::PolicyRegistry Registry;
    const hist::Expr *Client = echoClient(Ctx, Q);

    core::VerifierOptions Opts;
    Opts.PruneWithCompliance = Prune;
    core::Verifier V(Ctx, Repo, Registry, Opts);
    auto Report = V.verifyClient(Client, Ctx.symbol("c"));
    benchmark::DoNotOptimize(Report.Verdicts.size());
    State.counters["candidates"] =
        static_cast<double>(Report.CandidateCount);
    State.counters["valid"] =
        static_cast<double>(Report.validPlans().size());
  }
}
BENCHMARK(BM_VerifyClient)
    ->Args({4, 2, 0})
    ->Args({4, 2, 1})
    ->Args({8, 2, 0})
    ->Args({8, 2, 1})
    ->Args({8, 3, 0})
    ->Args({8, 3, 1})
    ->Args({16, 2, 0})
    ->Args({16, 2, 1});

/// Single-plan verification cost (compliance + security) as the nested
/// session chain deepens: a client calling a broker calling a broker ...
void BM_CheckPlanNestedDepth(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    hist::HistContext Ctx;
    plan::Repository Repo;
    // brokerK forwards to brokerK+1; the last one answers directly.
    for (unsigned I = 0; I < Depth; ++I) {
      const hist::Expr *Inner =
          I + 1 < Depth
              ? Ctx.request(200 + I + 1, hist::PolicyRef(),
                            Ctx.send("Ping",
                                     Ctx.receive("Pong", Ctx.empty())))
              : Ctx.empty();
      const hist::Expr *Svc = Ctx.receive(
          "Ping", Ctx.seq(Inner, Ctx.send("Pong", Ctx.empty())));
      Repo.add(Ctx.symbol("hop" + std::to_string(I)), Svc);
    }
    const hist::Expr *Client =
        Ctx.request(200, hist::PolicyRef(),
                    Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty())));
    plan::Plan Pi;
    for (unsigned I = 0; I < Depth; ++I)
      Pi.bind(200 + I, Ctx.symbol("hop" + std::to_string(I)));

    policy::PolicyRegistry Registry;
    core::Verifier V(Ctx, Repo, Registry);
    auto Verdict = V.checkPlan(Client, Ctx.symbol("c"), Pi);
    benchmark::DoNotOptimize(Verdict.isValid());
    State.counters["sec_states"] =
        static_cast<double>(Verdict.Security.ExploredStates);
  }
}
BENCHMARK(BM_CheckPlanNestedDepth)->DenseRange(1, 13, 3);

//===----------------------------------------------------------------------===//
// B9 workload: a multi-family repository at 10k-service scale
//===----------------------------------------------------------------------===//

/// \p NumFamilies channel families with pairwise disjoint alphabets
/// (family f speaks f<f>r / f<f>a); each family publishes one good
/// recursive responder and many that answer on a dead channel. Selective
/// by construction: only the ~NumServices/NumFamilies same-family
/// services can possibly serve a family-f request, which is exactly what
/// the index's buckets discover without building a single product.
struct RepoWorkload {
  hist::HistContext Ctx;
  policy::PolicyRegistry Registry;
  plan::Repository Repo;
  unsigned NumFamilies = 0;
  std::vector<const hist::Expr *> Clients; ///< Rotating request mix.
  std::vector<plan::Loc> GoodLocs;         ///< One per family (churn pool).
};

std::string famChannel(unsigned Family, const char *Suffix) {
  return "f" + std::to_string(Family) + Suffix;
}

/// The family-f responder: µh. f<f>r? . <answer>! . h. The good one
/// answers on the family's ack channel, a bad one on a dead channel —
/// refuted only by the in-family compliance product, never by a bucket
/// miss (it *does* offer the family's request channel).
const hist::Expr *familyService(hist::HistContext &Ctx, unsigned Family,
                                bool Good) {
  return Ctx.mu("h",
                Ctx.receive(famChannel(Family, "r"),
                            Ctx.send(famChannel(Family, Good ? "a" : "x"),
                                     Ctx.var("h"))));
}

/// A family-f client body: \p Depth request/ack rounds, then done. The
/// recursive responder serves any depth, so depth rotation yields
/// distinct (hash-consed) bodies over the same service set.
const hist::Expr *familyBody(hist::HistContext &Ctx, unsigned Family,
                             unsigned Depth) {
  const hist::Expr *E = Ctx.empty();
  for (unsigned I = 0; I < Depth; ++I)
    E = Ctx.send(famChannel(Family, "r"),
                 Ctx.receive(famChannel(Family, "a"), E));
  return E;
}

std::unique_ptr<RepoWorkload> buildRepoWorkload(unsigned NumServices,
                                                unsigned NumFamilies) {
  auto WP = std::make_unique<RepoWorkload>();
  RepoWorkload &W = *WP;
  W.NumFamilies = NumFamilies;
  for (unsigned I = 0; I < NumServices; ++I) {
    unsigned Family = I % NumFamilies;
    bool Good = I < NumFamilies; // First pass over the families.
    plan::Loc L = W.Ctx.symbol("svc" + std::to_string(I));
    W.Repo.add(L, familyService(W.Ctx, Family, Good));
    if (Good)
      W.GoodLocs.push_back(L);
  }
  // 128 rotating clients: every family, depths 1..4, two requests each.
  for (unsigned K = 0; K < 128; ++K) {
    unsigned Family = K % NumFamilies;
    unsigned Depth = 1 + (K / NumFamilies) % 4;
    const hist::Expr *Body = familyBody(W.Ctx, Family, Depth);
    W.Clients.push_back(
        W.Ctx.seq(W.Ctx.request(100, hist::PolicyRef(), Body),
                  W.Ctx.request(101, hist::PolicyRef(), Body)));
  }
  return WP;
}

RepoWorkload &repoWorkload(unsigned NumServices) {
  // One shared instance per size; HistContext pins its address.
  static std::unique_ptr<RepoWorkload> W1k =
      buildRepoWorkload(1000, 100);
  static std::unique_ptr<RepoWorkload> W10k =
      buildRepoWorkload(10000, 100);
  return NumServices >= 10000 ? *W10k : *W1k;
}

//===----------------------------------------------------------------------===//
// B9: indexed candidate selection vs repository scan
//===----------------------------------------------------------------------===//

/// Steady-state client verification throughput over a warm verifier:
/// range(0) = repository size, range(1) = UseIndex. Both sides share the
/// workload, the compliance pre-screens and the compliance memo; the
/// measured difference is candidate selection — O(answer) bucket lookups
/// screened once per body vs an O(repository) scan screening each
/// binding from memoized summaries. Reported as plans-verified/sec.
void BM_RepositoryVerify(benchmark::State &State) {
  RepoWorkload &W = repoWorkload(static_cast<unsigned>(State.range(0)));
  core::VerifierOptions Opts;
  Opts.UseIndex = State.range(1) != 0;
  core::Verifier V(W.Ctx, W.Repo, W.Registry, Opts);
  plan::Loc ClientLoc = W.Ctx.symbol("client");

  size_t K = 0, Verified = 0, Bindings = 0;
  for (auto _ : State) {
    const hist::Expr *Client = W.Clients[K++ % W.Clients.size()];
    auto Report = V.verifyClient(Client, ClientLoc);
    Verified += Report.Verdicts.size();
    Bindings += Report.BindingsTried;
    benchmark::DoNotOptimize(Report.validPlans().size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(Verified));
  State.counters["bindings_per_client"] =
      benchmark::Counter(static_cast<double>(Bindings),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RepositoryVerify)
    ->ArgNames({"services", "index"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

/// One-time index construction: summarize every published service and
/// fill the buckets. The cost a session pays before the first lookup.
void BM_IndexBuild(benchmark::State &State) {
  RepoWorkload &W = repoWorkload(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    plan::ServiceIndex Index(W.Ctx, W.Repo);
    benchmark::DoNotOptimize(Index.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(W.Repo.size()));
}
BENCHMARK(BM_IndexBuild)->ArgNames({"services"})->Arg(1000)->Arg(10000);

//===----------------------------------------------------------------------===//
// B9: parsing the repository
//===----------------------------------------------------------------------===//

/// The B9 repository as .sus source: every service and the rotating
/// clients, printed back through hist::print (which round-trips).
std::string repoWorkloadText(unsigned NumServices) {
  RepoWorkload &W = repoWorkload(NumServices);
  const StringInterner &In = W.Ctx.interner();
  std::string Out;
  for (const auto &[L, Service] : W.Repo.services())
    Out += "service " + std::string(In.text(L)) + " { " +
           hist::print(W.Ctx, Service) + " }\n";
  for (size_t K = 0; K < W.Clients.size(); ++K)
    Out += "client c" + std::to_string(K) + " { " +
           hist::print(W.Ctx, W.Clients[K]) + " }\n";
  return Out;
}

/// Cold parse of the whole repository text into a fresh context: the
/// lexer, the parsers, interning and the well-formedness facts. Reported
/// as source bytes/sec.
void BM_ParseRepository(benchmark::State &State) {
  std::string Source =
      repoWorkloadText(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    hist::HistContext Ctx;
    DiagnosticEngine Diags;
    std::optional<syntax::SusFile> File =
        syntax::parseSusFile(Ctx, Source, Diags);
    if (!File) {
      State.SkipWithError("the repository text does not parse");
      break;
    }
    benchmark::DoNotOptimize(File->Repo.size());
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_ParseRepository)->Arg(10000)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// B9: heavy churn — incremental repair (p99 latency)
//===----------------------------------------------------------------------===//

/// Single-service churn against the 10k repository: each iteration
/// unpublishes one good responder and republishes it, patching the
/// session through RepairSession::applyDelta both times. Reports
/// repairs/sec, the p99 wall-clock latency of one applyDelta in
/// microseconds, and the fraction of the plan set that had to be
/// re-verified (the <5% claim of EXPERIMENTS.md B9).
void BM_ChurnRepair(benchmark::State &State) {
  RepoWorkload &W = repoWorkload(10000);
  core::VerifierOptions Opts;
  Opts.UseIndex = true;
  core::Verifier V(W.Ctx, W.Repo, W.Registry, Opts);
  plan::Loc ClientLoc = W.Ctx.symbol("client");

  // One session per family-0 client shape; repairs patch it in place.
  core::RepairSession Session(V, W.Clients[0], ClientLoc);
  Session.verify();

  std::vector<int64_t> LatencyUs;
  double ReverifiedSum = 0.0;
  size_t Repairs = 0, K = 0;
  for (auto _ : State) {
    plan::Loc Touched = W.GoodLocs[K++ % W.GoodLocs.size()];
    const hist::Expr *Old = W.Repo.find(Touched);
    for (int Phase = 0; Phase < 2; ++Phase) {
      plan::RepositoryDelta Delta;
      if (Phase == 0)
        Delta.Changes.push_back(plan::applyRemove(W.Repo, Touched));
      else
        Delta.Changes.push_back(
            plan::applyPublish(W.Repo, Touched, Old));
      auto T0 = std::chrono::steady_clock::now();
      auto Out = Session.applyDelta(Delta);
      auto T1 = std::chrono::steady_clock::now();
      if (!Out.ok()) {
        State.SkipWithError("repair unexpectedly inconclusive");
        return;
      }
      LatencyUs.push_back(
          std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0)
              .count());
      ReverifiedSum += Out.value().reverifiedFraction();
      ++Repairs;
    }
  }
  std::sort(LatencyUs.begin(), LatencyUs.end());
  if (!LatencyUs.empty())
    State.counters["p99_repair_us"] = static_cast<double>(
        LatencyUs[std::min(LatencyUs.size() - 1,
                           (LatencyUs.size() * 99) / 100)]);
  if (Repairs > 0)
    State.counters["reverified_frac"] =
        ReverifiedSum / static_cast<double>(Repairs);
  State.SetItemsProcessed(static_cast<int64_t>(Repairs));
}
BENCHMARK(BM_ChurnRepair);

/// The from-scratch alternative the repair path replaces: re-run the full
/// verifyClient after every single-service churn (fresh cache — a scratch
/// run has no session to keep warm). The baseline for the p99 comparison.
void BM_ChurnFromScratch(benchmark::State &State) {
  RepoWorkload &W = repoWorkload(10000);
  plan::Loc ClientLoc = W.Ctx.symbol("client");
  size_t K = 0;
  for (auto _ : State) {
    plan::Loc Touched = W.GoodLocs[K++ % W.GoodLocs.size()];
    const hist::Expr *Old = W.Repo.find(Touched);
    plan::RepositoryDelta Delta;
    Delta.Changes.push_back(plan::applyRemove(W.Repo, Touched));
    Delta.Changes.push_back(plan::applyPublish(W.Repo, Touched, Old));
    core::VerifierOptions Opts;
    Opts.UseIndex = true;
    core::Verifier V(W.Ctx, W.Repo, W.Registry, Opts);
    auto Report = V.verifyClient(W.Clients[0], ClientLoc);
    benchmark::DoNotOptimize(Report.Verdicts.size());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ChurnFromScratch);

} // namespace

/// Like BENCHMARK_MAIN(), plus the `--quick` alias CI uses (rewritten to
/// a short --benchmark_min_time) and `--metrics-out=FILE` (sus-metrics-v1
/// JSON, including the plan.* counters, dumped after the run).
int main(int argc, char **argv) {
  std::string MetricsPath = sus::bench::stripMetricsOutArg(argc, argv);
  std::vector<char *> Args;
  static char MinTime[] = "--benchmark_min_time=0.01";
  for (int I = 0; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Args.push_back(MinTime);
    else
      Args.push_back(argv[I]);
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return sus::bench::writeMetricsOut(MetricsPath);
}
