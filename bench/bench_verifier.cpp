//===- bench/bench_verifier.cpp - B7: verification pipeline scaling -------===//
///
/// \file
/// Experiment B7 (DESIGN.md): the §5 verifier as a serial pipeline over
/// the shared VerifierCache. The headline workload is a re-verification
/// *session*: the repository grows by one service at a time and the
/// client is re-verified after each step, so the cache answers every
/// previously-explored plan instantly. Single-shot sweeps over width ×
/// request count × depth are kept alongside. The uncached
/// recompute-per-plan baseline (mode 0) and the parallel mode (mode 2)
/// are retired; EXPERIMENTS.md keeps their last measurements. Every sweep
/// keeps a trailing mode argument of 1 (the cached mode) so benchmark
/// names match the recorded JSON. Run with `--benchmark_format=json` to
/// extend BENCH_verifier.json, the perf trajectory tracked across PRs.
///
//===----------------------------------------------------------------------===//

#include "MetricsOut.h"
#include "Workloads.h"
#include "automata/KernelStats.h"
#include "core/Verifier.h"

#include <benchmark/benchmark.h>

using namespace sus;
using namespace sus::bench;

namespace {

/// A re-verification session over a growing repository: start from
/// \p R chatty services (half of them non-compliant), verify the
/// \p Q-request client, then add one compliant service and re-verify,
/// \p Steps times. Half the services are non-compliant, and a light
/// at-most policy keeps the security monitors honest. Returns one report
/// per verification pass.
std::vector<core::VerificationReport>
runSession(hist::HistContext &Ctx, unsigned R, unsigned Q, unsigned Depth,
           unsigned Steps) {
  plan::Repository Repo =
      chattyRepository(Ctx, R, R / 2, Depth, /*EventsPerCall=*/1);
  policy::PolicyRegistry Registry;
  Registry.add(policy::makeAtMostPolicy(Ctx.interner(), "pol0", "evHot", 8));
  hist::PolicyRef Phi;
  Phi.Name = Ctx.symbol("pol0");
  const hist::Expr *Client = chattyClient(Ctx, Q, Depth, Phi);

  core::Verifier V(Ctx, Repo, Registry);
  std::vector<core::VerificationReport> Reports;
  Reports.push_back(V.verifyClient(Client, Ctx.symbol("c")));
  for (unsigned S = 0; S < Steps; ++S) {
    Repo.add(Ctx.symbol("svc" + std::to_string(R + S)),
             chattyService(Ctx, Depth, /*Bad=*/false, /*EventsPerCall=*/1));
    Reports.push_back(V.verifyClient(Client, Ctx.symbol("c")));
  }
  return Reports;
}

/// The headline benchmark: a 4-step re-verification session at
/// repository width R × request count Q, protocol depth 6. The cached
/// pipeline only pays for plans the repository growth
/// made possible.
void BM_VerifySession(benchmark::State &State) {
  unsigned R = static_cast<unsigned>(State.range(0));
  unsigned Q = static_cast<unsigned>(State.range(1));
  automata::resetKernelNanos();
  for (auto _ : State) {
    hist::HistContext Ctx;
    std::vector<core::VerificationReport> Reports =
        runSession(Ctx, R, Q, 6, /*Steps=*/4);
    benchmark::DoNotOptimize(Reports.size());
    double Candidates = 0, Valid = 0;
    for (const core::VerificationReport &Report : Reports) {
      Candidates += static_cast<double>(Report.Verdicts.size());
      Valid += static_cast<double>(Report.validPlans().size());
    }
    State.counters["candidates"] = Candidates;
    State.counters["valid"] = Valid;
  }
  // Automata-kernel wall time per iteration, separated from the rest of
  // the pipeline (enumeration, derivation, caching).
  State.counters["automata_kernel_ms_per_iter"] =
      static_cast<double>(automata::kernelNanos()) / 1e6 /
      static_cast<double>(State.iterations());
}
BENCHMARK(BM_VerifySession)->Args({4, 2, 1})->Args({8, 3, 1})->Args({12, 3, 1});

/// Single-shot sweep: one verifyClient pass (Steps=0). Isolates the
/// within-pass gains (shared compliance products and projections; the
/// per-plan security explorations are inherently distinct work).
void BM_VerifySingleShot(benchmark::State &State) {
  unsigned R = static_cast<unsigned>(State.range(0));
  unsigned Q = static_cast<unsigned>(State.range(1));
  automata::resetKernelNanos();
  for (auto _ : State) {
    hist::HistContext Ctx;
    std::vector<core::VerificationReport> Reports =
        runSession(Ctx, R, Q, 6, /*Steps=*/0);
    benchmark::DoNotOptimize(Reports.size());
  }
  State.counters["automata_kernel_ms_per_iter"] =
      static_cast<double>(automata::kernelNanos()) / 1e6 /
      static_cast<double>(State.iterations());
}
BENCHMARK(BM_VerifySingleShot)->Args({8, 3, 1})->Args({16, 3, 1});

/// Depth sweep: per-plan security work grows with protocol depth; the
/// deeper the protocol, the more each cache hit is worth on re-passes.
void BM_VerifyDepth(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    hist::HistContext Ctx;
    std::vector<core::VerificationReport> Reports =
        runSession(Ctx, 8, 2, Depth, /*Steps=*/2);
    benchmark::DoNotOptimize(Reports.size());
  }
}
BENCHMARK(BM_VerifyDepth)->Args({2, 1})->Args({8, 1})->Args({16, 1});

/// Cross-client cache reuse: verifying a whole network of N clients with
/// the same contract shares every compliance pair across clients.
void BM_VerifyNetworkSharedCache(benchmark::State &State) {
  unsigned Clients = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    hist::HistContext Ctx;
    plan::Repository Repo = chattyRepository(Ctx, 8, 4, 4);
    policy::PolicyRegistry Registry;
    core::Verifier V(Ctx, Repo, Registry);
    std::vector<std::pair<const hist::Expr *, plan::Loc>> Net;
    const hist::Expr *Client = chattyClient(Ctx, 2, 4);
    for (unsigned I = 0; I < Clients; ++I)
      Net.push_back({Client, Ctx.symbol("c" + std::to_string(I))});
    core::NetworkReport Report = V.verifyNetwork(Net);
    benchmark::DoNotOptimize(Report.allClientsHaveValidPlans());
  }
}
BENCHMARK(BM_VerifyNetworkSharedCache)->Args({2, 1})->Args({8, 1});

/// The enumerator after the bind/undo rewrite: pure candidate explosion,
/// no checking (companion to B3's BM_EnumerateOnly; kept here so the B7
/// JSON tracks it too).
void BM_EnumerateBindUndo(benchmark::State &State) {
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
BENCHMARK(BM_EnumerateBindUndo)->Args({8, 4})->Args({16, 3})->Args({16, 4});

} // namespace

/// Like BENCHMARK_MAIN(), plus `--metrics-out=FILE`: dump the pipeline
/// metrics registry (cache hit rates, kernel time) as
/// sus-metrics-v1 JSON after the run.
int main(int argc, char **argv) {
  std::string MetricsPath = stripMetricsOutArg(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return writeMetricsOut(MetricsPath);
}
