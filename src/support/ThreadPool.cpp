//===- support/ThreadPool.cpp - Small work-stealing thread pool -----------===//

#include "support/ThreadPool.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <chrono>
#include <string>

using namespace sus;

namespace {

/// Pool-wide instruments (all pools share them: the registry is process
/// scoped).
metrics::Counter &tasksCounter() {
  static metrics::Counter &C = metrics::counter("pool.tasks");
  return C;
}

metrics::Counter &stealsCounter() {
  static metrics::Counter &C = metrics::counter("pool.steals");
  return C;
}

metrics::Gauge &maxQueueDepthGauge() {
  static metrics::Gauge &G = metrics::gauge("pool.max_queue_depth");
  return G;
}

metrics::Histogram &taskNanosHistogram() {
  static metrics::Histogram &H = metrics::histogram("pool.task_ns");
  return H;
}

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

unsigned ThreadPool::defaultWorkers() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

ThreadPool::ThreadPool(unsigned Workers) {
  if (Workers == 0)
    Workers = 1;
  Queues.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>(*this));
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  waitIdle();
  {
    MutexLock Lock(StateMutex);
    Stopping = true;
  }
  WorkAvailable.notifyAll();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::submit(Task T) {
  assert(T && "empty task");
  {
    MutexLock Lock(StateMutex);
    ++Unfinished;
    tasksCounter().add();
    maxQueueDepthGauge().setMax(static_cast<int64_t>(Unfinished));
    WorkerQueue &WQ = *Queues[NextQueue];
    NextQueue = (NextQueue + 1) % Queues.size();
    MutexLock QLock(WQ.M);
    WQ.Q.push_back(std::move(T));
  }
  WorkAvailable.notifyOne();
}

bool ThreadPool::grabTask(unsigned Id, Task &Out) {
  // Own deque first, newest-first: the task most likely still warm.
  {
    WorkerQueue &Own = *Queues[Id];
    MutexLock Lock(Own.M);
    if (!Own.Q.empty()) {
      Out = std::move(Own.Q.back());
      Own.Q.pop_back();
      return true;
    }
  }
  // Steal oldest-first from the other workers.
  for (size_t Off = 1; Off < Queues.size(); ++Off) {
    WorkerQueue &Victim = *Queues[(Id + Off) % Queues.size()];
    MutexLock Lock(Victim.M);
    if (!Victim.Q.empty()) {
      Out = std::move(Victim.Q.front());
      Victim.Q.pop_front();
      stealsCounter().add();
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(unsigned Id) {
  for (;;) {
    Task T;
    if (grabTask(Id, T)) {
      runTask(Id, T);
      MutexLock Lock(StateMutex);
      assert(Unfinished > 0 && "task accounting underflow");
      if (--Unfinished == 0)
        AllDone.notifyAll();
      continue;
    }
    MutexLock Lock(StateMutex);
    if (Stopping)
      return;
    // Re-check under the lock: a task may have arrived between the failed
    // grab and acquiring the lock; sleeping then would miss its wakeup.
    // StateMutex → queue M, the one sanctioned nesting direction.
    bool Empty = true;
    for (auto &WQ : Queues) {
      MutexLock QLock(WQ->M);
      if (!WQ->Q.empty()) {
        Empty = false;
        break;
      }
    }
    if (!Empty)
      continue;
    WorkAvailable.wait(Lock);
  }
}

void ThreadPool::runTask(unsigned Id, Task &T) {
  // Gated clock reads: with metrics and tracing off, running a task costs
  // two relaxed atomic loads on top of the task itself.
  if (!metrics::enabled() && !trace::enabled()) {
    T(Id);
    return;
  }
  trace::Span Span("pool.task", "pool");
  Span.count("worker", Id);
  uint64_t Start = nowNanos();
  T(Id);
  uint64_t Nanos = nowNanos() - Start;
  taskNanosHistogram().observe(Nanos);
  metrics::counter("pool.worker" + std::to_string(Id) + ".busy_ns")
      .add(Nanos);
}

void ThreadPool::waitIdle() {
  MutexLock Lock(StateMutex);
  // Explicit wait loop rather than the predicate-lambda overload: the
  // analysis checks this form precisely (Unfinished is read with
  // StateMutex held on every iteration; a lambda would be analyzed as a
  // separate, lockless function).
  while (Unfinished != 0)
    AllDone.wait(Lock);
}
