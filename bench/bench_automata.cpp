//===- bench/bench_automata.cpp - B5: automata substrate ops --------------===//
///
/// \file
/// Experiment B5 (DESIGN.md): scaling of the finite-automata kernels —
/// determinization, minimization, on-the-fly containment and
/// equivalence — over seeded random NFAs.
///
//===----------------------------------------------------------------------===//

#include "MetricsOut.h"
#include "automata/Ops.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

using namespace sus::automata;

namespace {

Nfa randomNfa(std::mt19937 &Rng, unsigned NumStates, unsigned NumSymbols,
              double EdgeFactor) {
  Nfa N;
  for (unsigned I = 0; I < NumStates; ++I)
    N.addState(Rng() % 5 == 0);
  N.setStart(0);
  unsigned NumEdges = static_cast<unsigned>(NumStates * EdgeFactor);
  for (unsigned I = 0; I < NumEdges; ++I)
    N.addEdge(Rng() % NumStates, Rng() % NumSymbols, Rng() % NumStates);
  return N;
}

void BM_Determinize(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::mt19937 Rng(42);
  Nfa A = randomNfa(Rng, N, 4, 3.0);
  size_t States = 0;
  for (auto _ : State) {
    Dfa D = determinize(A);
    States = D.numStates();
    benchmark::DoNotOptimize(D.numStates());
  }
  State.counters["dfa_states"] = static_cast<double>(States);
}
BENCHMARK(BM_Determinize)->RangeMultiplier(2)->Range(8, 256);

void BM_Minimize(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::mt19937 Rng(11);
  Dfa D = determinize(randomNfa(Rng, N, 3, 2.5));
  size_t MinStates = 0;
  for (auto _ : State) {
    Dfa M = minimize(D);
    MinStates = M.numStates();
    benchmark::DoNotOptimize(M.numStates());
  }
  State.counters["min_states"] = static_cast<double>(MinStates);
}
BENCHMARK(BM_Minimize)->RangeMultiplier(2)->Range(8, 128);

void BM_Equivalence(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::mt19937 Rng(31);
  Dfa A = determinize(randomNfa(Rng, N, 3, 2.0));
  Dfa B = minimize(A); // Equivalent by construction.
  for (auto _ : State) {
    bool Eq = equivalent(A, B);
    benchmark::DoNotOptimize(Eq);
  }
}
BENCHMARK(BM_Equivalence)->RangeMultiplier(2)->Range(8, 64);

void BM_ContainedIn(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::mt19937 Rng(31); // Same inputs as BM_Equivalence.
  Dfa A = determinize(randomNfa(Rng, N, 3, 2.0));
  Dfa B = minimize(A); // A ⊆ B holds: the check explores everything.
  for (auto _ : State) {
    bool Sub = containedIn(A, B);
    benchmark::DoNotOptimize(Sub);
  }
}
BENCHMARK(BM_ContainedIn)->RangeMultiplier(2)->Range(8, 64);

} // namespace

/// Like BENCHMARK_MAIN(), plus a `--quick` alias that CI uses (rewritten
/// to a short --benchmark_min_time so the whole suite smoke-runs in
/// seconds; the bundled benchmark library wants a plain double there) and
/// `--metrics-out=FILE` to dump the kernel-time metrics registry as
/// sus-metrics-v1 JSON after the run.
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
