//===- bench/bench_monitor.cpp - B8: fused-DFA monitor engine -------------===//
///
/// \file
/// Experiment B8 (DESIGN.md §9): per-event admission throughput of the
/// fused-DFA runtime monitor against the legacy per-policy probe, plus
/// fusion cost, cache-hit cost, and batch ingestion through the
/// MonitorEngine (with a p99 batch-latency counter) — sharded, at 64 and
/// 128 policies, and on a cold product memo.
///
/// The workload is a fixed session shape: 4 parametric policy shapes,
/// each instantiated twice (8 fused policies, one mask word), over a
/// 24-event closed universe. Offending edges are gated on an event value
/// the trace never fires, so monitors churn state on every label but
/// never latch a violation — the same batch can be re-ingested
/// indefinitely and neither side ever takes the trivial "already
/// violated" early-out. The wide engine cases instantiate the same
/// shapes 16 and 32 times (64 and 128 policies), and the cold-memo case
/// times a first pass over a freshly fused automaton, where every product
/// state is still to be materialized.
///
//===----------------------------------------------------------------------===//

#include "MetricsOut.h"
#include "hist/HistContext.h"
#include "monitor/Fused.h"
#include "monitor/MonitorEngine.h"
#include "monitor/SessionMonitor.h"
#include "policy/Validity.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace sus;
using hist::Event;
using hist::Label;
using hist::PolicyRef;

namespace {

/// The shared benchmark scenario. Heap-allocated once (HistContext pins
/// its address) and reused by every benchmark.
struct Workload {
  hist::HistContext Ctx;
  policy::PolicyRegistry Registry;
  std::vector<PolicyRef> Refs;
  std::vector<Event> Universe;
  std::vector<Label> FrameOpens; ///< One frame per ref, fired at t=0.
  std::vector<Label> Events;     ///< Violation-free event stream.
  std::vector<Label> Trace;      ///< FrameOpens ++ Events.
};

/// Shape i: a 4-state churn cycle over events e(2i), e(2i+1) with a
/// nondeterministic shortcut and a wildcard reset. The only edges into
/// the offending state require event value 3; the trace fires values
/// 1 and 2 only, so the monitor steps on every event yet never offends.
policy::UsageAutomaton makeShape(StringInterner &In, unsigned I,
                                 const std::vector<Symbol> &Names) {
  policy::UsageAutomaton A(In.intern("phi" + std::to_string(I)),
                           {{In.intern("t"), /*IsSet=*/false}});
  for (unsigned Q = 0; Q < 4; ++Q)
    A.addState("q" + std::to_string(Q), /*Offending=*/Q == 3);
  Symbol EvA = Names[(2 * I) % Names.size()];
  Symbol EvB = Names[(2 * I + 1) % Names.size()];
  Symbol EvC = Names[(2 * I + 3) % Names.size()];
  using policy::CmpOp;
  using policy::Guard;
  A.addEdge(0, EvA, Guard::cmpParam(CmpOp::LE, 0), 1);
  A.addEdge(1, EvB, Guard::cmpConst(CmpOp::LE, Value::integer(2)), 2);
  A.addEdge(0, EvC, Guard::always(), 2); // Nondeterministic shortcut.
  A.addWildcardEdge(2, 0);               // Reset churn.
  // Offending is reachable only on value 3 — never fired by the trace.
  A.addEdge(2, EvA, Guard::cmpConst(CmpOp::EQ, Value::integer(3)), 3);
  A.addEdge(1, EvB, Guard::cmpConst(CmpOp::EQ, Value::integer(3)), 3);
  return A;
}

std::unique_ptr<Workload> buildWorkload(size_t NumEvents) {
  auto WP = std::make_unique<Workload>();
  Workload &W = *WP;
  StringInterner &In = W.Ctx.interner();

  std::vector<Symbol> Names;
  for (unsigned I = 0; I < 8; ++I)
    Names.push_back(In.intern("e" + std::to_string(I)));

  for (unsigned I = 0; I < 4; ++I) {
    policy::UsageAutomaton A = makeShape(In, I, Names);
    Symbol Name = A.name();
    W.Registry.add(std::move(A));
    // Two instantiations per shape: 8 fused policies total.
    W.Refs.push_back({Name, {{Value::integer(2)}}});
    W.Refs.push_back({Name, {{Value::integer(3)}}});
  }

  for (Symbol N : Names)
    for (int64_t V = 1; V <= 3; ++V)
      W.Universe.push_back({N, Value::integer(V)});

  for (const PolicyRef &R : W.Refs)
    W.FrameOpens.push_back(Label::frameOpen(R));

  std::mt19937_64 Rng(0xb8b8b8b8ull);
  for (size_t I = 0; I < NumEvents; ++I)
    W.Events.push_back(Label::event(
        {Names[Rng() % Names.size()],
         Value::integer(static_cast<int64_t>(1 + Rng() % 2))}));

  W.Trace = W.FrameOpens;
  W.Trace.insert(W.Trace.end(), W.Events.begin(), W.Events.end());

  // Sanity: two full passes must stay valid (the engine benchmarks rely
  // on the batch being re-ingestable without latching a violation).
  policy::ValidityChecker C(W.Registry, W.Ctx.interner());
  for (int Pass = 0; Pass < 2; ++Pass)
    for (const Label &L : W.Trace)
      if (!C.append(L)) {
        std::fprintf(stderr, "bench_monitor: workload trace violates\n");
        std::abort();
      }
  return WP;
}

/// \p N references over the workload's 4 shapes (parameters 2, 3, ...);
/// every parameter >= 2 admits the whole trace.
std::vector<PolicyRef> wideRefs(const Workload &W, unsigned N) {
  std::vector<PolicyRef> Refs;
  Refs.reserve(N);
  for (size_t K = 0; K < N; ++K)
    Refs.push_back({W.Refs[2 * (K % 4)].Name,
                    {{Value::integer(static_cast<int64_t>(2 + K / 4))}}});
  return Refs;
}

Workload &workload() {
  static std::unique_ptr<Workload> W = buildWorkload(/*NumEvents=*/1024);
  return *W;
}

const monitor::FusedPolicyAutomaton &fused() {
  static monitor::FusedPolicyAutomaton F = [] {
    Workload &W = workload();
    return monitor::fusePolicies(W.Registry, W.Ctx.interner(), W.Refs,
                                 W.Universe);
  }();
  return F;
}

//===----------------------------------------------------------------------===//
// Per-event admission: legacy probe vs fused step
//===----------------------------------------------------------------------===//

/// Seed baseline: what Interpreter::steps()+apply() cost per event before
/// this PR — probe every active PolicyMonitor by copy, then commit.
void BM_LegacyProbeAdvance(benchmark::State &State) {
  Workload &W = workload();
  for (auto _ : State) {
    policy::ValidityChecker C(W.Registry, W.Ctx.interner());
    for (const Label &L : W.Trace) {
      bool Admit = C.wouldRemainValid(L);
      benchmark::DoNotOptimize(Admit);
      C.append(L);
    }
    benchmark::DoNotOptimize(C.isValid());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(W.Trace.size()));
}
BENCHMARK(BM_LegacyProbeAdvance);

/// Legacy commit path alone (no admission probe): the floor the old
/// monitors can reach even with probing optimized away.
void BM_LegacyAdvance(benchmark::State &State) {
  Workload &W = workload();
  for (auto _ : State) {
    policy::ValidityChecker C(W.Registry, W.Ctx.interner());
    for (const Label &L : W.Trace)
      benchmark::DoNotOptimize(C.append(L));
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(W.Trace.size()));
}
BENCHMARK(BM_LegacyAdvance);

/// Fused probe+commit: one row load + mask test per event, the same
/// admission question BM_LegacyProbeAdvance answers.
void BM_FusedProbeAdvance(benchmark::State &State) {
  const monitor::FusedPolicyAutomaton &F = fused();
  Workload &W = workload();
  for (auto _ : State) {
    monitor::SessionMonitor M(F);
    for (const Label &L : W.Trace) {
      bool Admit = M.wouldAdmit(L);
      benchmark::DoNotOptimize(Admit);
      M.advance(L);
    }
    benchmark::DoNotOptimize(M.isViolated());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(W.Trace.size()));
  State.counters["fused_states"] = static_cast<double>(F.numStates());
}
BENCHMARK(BM_FusedProbeAdvance);

/// Fused commit path alone, mirroring BM_LegacyAdvance.
void BM_FusedAdvance(benchmark::State &State) {
  const monitor::FusedPolicyAutomaton &F = fused();
  Workload &W = workload();
  for (auto _ : State) {
    monitor::SessionMonitor M(F);
    for (const Label &L : W.Trace)
      benchmark::DoNotOptimize(M.advance(L));
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(W.Trace.size()));
}
BENCHMARK(BM_FusedAdvance);

//===----------------------------------------------------------------------===//
// Fusion construction and cache hits
//===----------------------------------------------------------------------===//

/// Fusion proper: compile and minimize each policy; the product is
/// materialized later, as sessions step.
void BM_Fusion(benchmark::State &State) {
  Workload &W = workload();
  size_t PartStates = 0;
  for (auto _ : State) {
    monitor::FusedPolicyAutomaton F = monitor::fusePolicies(
        W.Registry, W.Ctx.interner(), W.Refs, W.Universe);
    PartStates = 0;
    for (const automata::Dfa &Part : F.Parts)
      PartStates += Part.numStates();
    benchmark::DoNotOptimize(PartStates);
  }
  State.counters["part_states"] = static_cast<double>(PartStates);
}
BENCHMARK(BM_Fusion);

/// Cache hit: canonicalize + fingerprint + map lookup — the cost every
/// session after the first pays for its fused DFA.
void BM_FusionCacheHit(benchmark::State &State) {
  Workload &W = workload();
  monitor::FusedCache Cache;
  if (!Cache.fuse(W.Registry, W.Ctx.interner(), W.Refs, W.Universe)) {
    State.SkipWithError("priming fusion refused");
    return;
  }
  for (auto _ : State) {
    auto F = Cache.fuse(W.Registry, W.Ctx.interner(), W.Refs, W.Universe);
    benchmark::DoNotOptimize(F.get());
  }
  State.counters["cache_hits"] =
      static_cast<double>(Cache.stats().Hits);
}
BENCHMARK(BM_FusionCacheHit);

//===----------------------------------------------------------------------===//
// MonitorEngine: sharded batch ingestion (events/sec + p99 batch latency)
//===----------------------------------------------------------------------===//

constexpr unsigned EngineSessions = 64;
constexpr size_t EngineBatchSize = 8192;

/// Opens EngineSessions sessions on \p Refs and opens every frame.
void openFramedSessions(monitor::MonitorEngine &Engine,
                        const std::vector<PolicyRef> &Refs) {
  Workload &W = workload();
  for (unsigned I = 0; I < EngineSessions; ++I) {
    auto S = Engine.openSession(Refs, W.Universe);
    for (const PolicyRef &R : Refs)
      Engine.advance(S, Label::frameOpen(R));
  }
}

/// An 8192-item batch interleaving the event stream over the sessions.
std::vector<monitor::MonitorEngine::BatchItem> engineBatch() {
  Workload &W = workload();
  std::vector<monitor::MonitorEngine::BatchItem> Batch;
  Batch.reserve(EngineBatchSize);
  for (size_t I = 0; I < EngineBatchSize; ++I)
    Batch.push_back({static_cast<monitor::MonitorEngine::SessionId>(
                         I % EngineSessions),
                     W.Events[I % W.Events.size()]});
  return Batch;
}

/// Ingests the batch over 64 sessions framed by \p Refs with \p Workers
/// shards. Reports items/sec and the p99 wall-clock latency of a whole
/// ingest() call in microseconds.
void runEngineIngest(benchmark::State &State,
                     const std::vector<PolicyRef> &Refs, unsigned Workers) {
  Workload &W = workload();
  monitor::MonitorEngine::Options EO;
  EO.Workers = Workers;
  monitor::MonitorEngine Engine(W.Registry, W.Ctx.interner(), EO);
  openFramedSessions(Engine, Refs);
  std::vector<monitor::MonitorEngine::BatchItem> Batch = engineBatch();

  std::vector<uint8_t> Decisions;
  std::vector<double> LatencyUs;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    Engine.ingest(Batch, &Decisions);
    auto T1 = std::chrono::steady_clock::now();
    LatencyUs.push_back(
        std::chrono::duration<double, std::micro>(T1 - T0).count());
    benchmark::DoNotOptimize(Decisions.data());
  }
  if (Engine.stats().Blocked != 0)
    State.SkipWithError("the workload trace was blocked");
  std::sort(LatencyUs.begin(), LatencyUs.end());
  double P99 = 0.0;
  if (!LatencyUs.empty())
    P99 = LatencyUs[std::min(LatencyUs.size() - 1,
                             (LatencyUs.size() * 99) / 100)];
  State.counters["p99_batch_us"] = P99;
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(EngineBatchSize));
}

/// The 8-policy session; range(0) is the worker count (1 = no pool).
void BM_EngineIngest(benchmark::State &State) {
  runEngineIngest(State, workload().Refs,
                  static_cast<unsigned>(State.range(0)));
}
// Real time: the calling thread parks in waitIdle while pool workers do
// the stepping, so CPU-time rates would be meaningless for Workers > 1.
BENCHMARK(BM_EngineIngest)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Sessions of range(0) policies on one shard: 64 fills the inline mask
/// word, 128 adds a second word.
void BM_EngineIngestWide(benchmark::State &State) {
  runEngineIngest(State,
                  wideRefs(workload(), static_cast<unsigned>(State.range(0))),
                  /*Workers=*/1);
}
BENCHMARK(BM_EngineIngestWide)->Arg(64)->Arg(128)->UseRealTime();

/// The first pass over a freshly fused automaton of range(0) policies:
/// fusion and session set-up are untimed, so the time is ingestion plus
/// materializing every product state the batch reaches.
void BM_EngineIngestColdMemo(benchmark::State &State) {
  Workload &W = workload();
  std::vector<PolicyRef> Refs =
      wideRefs(W, static_cast<unsigned>(State.range(0)));
  std::vector<monitor::MonitorEngine::BatchItem> Batch = engineBatch();
  std::vector<uint8_t> Decisions;
  size_t States = 0;
  for (auto _ : State) {
    State.PauseTiming();
    auto Cache = std::make_unique<monitor::FusedCache>();
    monitor::MonitorEngine::Options EO;
    EO.Cache = Cache.get();
    auto Engine = std::make_unique<monitor::MonitorEngine>(
        W.Registry, W.Ctx.interner(), EO);
    openFramedSessions(*Engine, Refs);
    State.ResumeTiming();
    Engine->ingest(Batch, &Decisions);
    benchmark::DoNotOptimize(Decisions.data());
    State.PauseTiming();
    States = Cache->snapshot().front()->numStates();
    Engine.reset();
    Cache.reset();
    State.ResumeTiming();
  }
  State.counters["fused_states"] = static_cast<double>(States);
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(EngineBatchSize));
}
BENCHMARK(BM_EngineIngestColdMemo)->Arg(8)->Arg(128)->UseRealTime();

} // namespace

/// Like BENCHMARK_MAIN(), plus the `--quick` alias CI uses (rewritten to
/// a short --benchmark_min_time) and `--metrics-out=FILE` (sus-metrics-v1
/// JSON, including the monitor.* counters, dumped after the run).
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
