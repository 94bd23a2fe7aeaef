//===- bench/bench_verifier.cpp - B7: verification pipeline scaling -------===//
///
/// \file
/// Experiment B7 (DESIGN.md): the §5 verifier as a pipeline — serial
/// over the shared VerifierCache, and cache + parallel security checking
/// over the work-stealing pool. The headline workload is a
/// re-verification *session*: the repository grows by one service at a
/// time and the client is re-verified after each step, so the cache
/// answers every previously-explored plan instantly. Single-shot sweeps
/// over width × request count × depth are kept alongside. The uncached
/// recompute-per-plan baseline (mode 0) is retired; EXPERIMENTS.md keeps
/// its last measurement. Run with `--benchmark_format=json` to extend
/// BENCH_verifier.json, the perf trajectory tracked across PRs.
///
/// The binary self-checks determinism at startup: both modes must
/// produce element-wise identical verdicts at every step of the
/// acceptance session (8 services × 3 requests, 4 worker threads) or it
/// aborts.
///
//===----------------------------------------------------------------------===//

#include "MetricsOut.h"
#include "Workloads.h"
#include "automata/KernelStats.h"
#include "core/Verifier.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

using namespace sus;
using namespace sus::bench;

namespace {

/// Mode knob for the sweeps below (0 was the retired uncached baseline;
/// the values stay so benchmark names match the recorded JSON).
enum Mode : int {
  SerialCached = 1,   ///< Shared VerifierCache, one thread.
  ParallelCached = 2, ///< Shared VerifierCache + 4 worker shards.
};

core::VerifierOptions optionsFor(Mode M) {
  core::VerifierOptions Opts;
  Opts.Jobs = M == ParallelCached ? 4 : 1;
  return Opts;
}

/// A re-verification session over a growing repository: start from
/// \p R chatty services (half of them non-compliant), verify the
/// \p Q-request client, then add one compliant service and re-verify,
/// \p Steps times. Half the services are non-compliant, and a light
/// at-most policy keeps the security monitors honest. Returns one report
/// per verification pass.
std::vector<core::VerificationReport>
runSession(hist::HistContext &Ctx, unsigned R, unsigned Q, unsigned Depth,
           unsigned Steps, Mode M) {
  plan::Repository Repo =
      chattyRepository(Ctx, R, R / 2, Depth, /*EventsPerCall=*/1);
  policy::PolicyRegistry Registry;
  Registry.add(policy::makeAtMostPolicy(Ctx.interner(), "pol0", "evHot", 8));
  hist::PolicyRef Phi;
  Phi.Name = Ctx.symbol("pol0");
  const hist::Expr *Client = chattyClient(Ctx, Q, Depth, Phi);

  core::Verifier V(Ctx, Repo, Registry, optionsFor(M));
  std::vector<core::VerificationReport> Reports;
  Reports.push_back(V.verifyClient(Client, Ctx.symbol("c")));
  for (unsigned S = 0; S < Steps; ++S) {
    Repo.add(Ctx.symbol("svc" + std::to_string(R + S)),
             chattyService(Ctx, Depth, /*Bad=*/false, /*EventsPerCall=*/1));
    Reports.push_back(V.verifyClient(Client, Ctx.symbol("c")));
  }
  return Reports;
}

/// Startup determinism check: identical verdicts at every step of the
/// acceptance session (R=8, Q=3, 4 worker threads) across both modes.
bool selfCheck() {
  std::vector<std::vector<std::vector<plan::Plan>>> Valid;
  std::vector<std::vector<size_t>> Candidates;
  for (Mode M : {SerialCached, ParallelCached}) {
    hist::HistContext Ctx;
    std::vector<core::VerificationReport> Reports =
        runSession(Ctx, 8, 3, 6, /*Steps=*/2, M);
    Valid.emplace_back();
    Candidates.emplace_back();
    for (const core::VerificationReport &Report : Reports) {
      Valid.back().push_back(Report.validPlans());
      Candidates.back().push_back(Report.Verdicts.size());
    }
  }
  // Plans are Symbol maps; symbol ids are identical across the fresh
  // contexts because each run interns the same names in the same order.
  if (Valid[0] != Valid[1] || Candidates[0] != Candidates[1]) {
    std::fprintf(stderr,
                 "bench_verifier: verdicts diverge across modes\n");
    std::abort();
  }
  return true;
}

const bool SelfChecked = selfCheck();

/// The headline benchmark: a 4-step re-verification session at
/// repository width R × request count Q, protocol depth 6, in both
/// modes. The cached pipeline only pays for plans the repository growth
/// made possible.
void BM_VerifySession(benchmark::State &State) {
  unsigned R = static_cast<unsigned>(State.range(0));
  unsigned Q = static_cast<unsigned>(State.range(1));
  Mode M = static_cast<Mode>(State.range(2));
  automata::resetKernelNanos();
  for (auto _ : State) {
    hist::HistContext Ctx;
    std::vector<core::VerificationReport> Reports =
        runSession(Ctx, R, Q, 6, /*Steps=*/4, M);
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
  // the pipeline (enumeration, derivation, caching, thread handoff).
  State.counters["automata_kernel_ms_per_iter"] =
      static_cast<double>(automata::kernelNanos()) / 1e6 /
      static_cast<double>(State.iterations());
}
BENCHMARK(BM_VerifySession)
    ->Args({4, 2, SerialCached})
    ->Args({4, 2, ParallelCached})
    ->Args({8, 3, SerialCached})
    ->Args({8, 3, ParallelCached})
    ->Args({12, 3, SerialCached})
    ->Args({12, 3, ParallelCached});

/// Single-shot sweep: one verifyClient pass (Steps=0). Isolates the
/// within-pass gains (shared compliance products and projections; the
/// per-plan security explorations are inherently distinct work).
void BM_VerifySingleShot(benchmark::State &State) {
  unsigned R = static_cast<unsigned>(State.range(0));
  unsigned Q = static_cast<unsigned>(State.range(1));
  Mode M = static_cast<Mode>(State.range(2));
  automata::resetKernelNanos();
  for (auto _ : State) {
    hist::HistContext Ctx;
    std::vector<core::VerificationReport> Reports =
        runSession(Ctx, R, Q, 6, /*Steps=*/0, M);
    benchmark::DoNotOptimize(Reports.size());
  }
  State.counters["automata_kernel_ms_per_iter"] =
      static_cast<double>(automata::kernelNanos()) / 1e6 /
      static_cast<double>(State.iterations());
}
BENCHMARK(BM_VerifySingleShot)
    ->Args({8, 3, SerialCached})
    ->Args({8, 3, ParallelCached})
    ->Args({16, 3, SerialCached})
    ->Args({16, 3, ParallelCached});

/// Depth sweep: per-plan security work grows with protocol depth; the
/// deeper the protocol, the more each cache hit is worth on re-passes.
void BM_VerifyDepth(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  Mode M = static_cast<Mode>(State.range(1));
  for (auto _ : State) {
    hist::HistContext Ctx;
    std::vector<core::VerificationReport> Reports =
        runSession(Ctx, 8, 2, Depth, /*Steps=*/2, M);
    benchmark::DoNotOptimize(Reports.size());
  }
}
BENCHMARK(BM_VerifyDepth)
    ->Args({2, SerialCached})
    ->Args({2, ParallelCached})
    ->Args({8, SerialCached})
    ->Args({8, ParallelCached})
    ->Args({16, SerialCached})
    ->Args({16, ParallelCached});

/// Cross-client cache reuse: verifying a whole network of N clients with
/// the same contract shares every compliance pair across clients. (The
/// second argument, 1, is the cached mode; 0 was the retired baseline.)
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
/// metrics registry (cache hit rates, pool counters, kernel time) as
/// sus-metrics-v1 JSON after the run.
int main(int argc, char **argv) {
  std::string MetricsPath = stripMetricsOutArg(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return writeMetricsOut(MetricsPath);
}
