//===- support/ThreadPool.h - Small work-stealing thread pool ---*- C++ -*-===//
///
/// \file
/// A small fixed-size work-stealing thread pool for fanning independent
/// units of work (monitor shards, daemon connections) out over the
/// hardware. Each worker owns a deque: new work is distributed
/// round-robin, a worker pops its own deque LIFO (cache-friendly) and
/// steals FIFO from the others when it runs dry.
///
/// Tasks receive the id of the worker *executing* them, so callers can
/// keep per-worker scratch state without any synchronization: one worker
/// runs one task at a time.
///
/// The pool itself makes no determinism promises — callers that need
/// deterministic output must make tasks independent and slot results by
/// index (see monitor::MonitorEngine).
///
/// Lock order (checked statically, see DESIGN.md §11): StateMutex is
/// acquired before any WorkerQueue::M (submit, the worker-loop recheck).
/// grabTask takes queue mutexes alone. No lock is ever held while a task
/// executes.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_THREADPOOL_H
#define SUS_SUPPORT_THREADPOOL_H

#include "support/Sync.h"

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace sus {

/// A fixed-width work-stealing pool.
class ThreadPool {
public:
  /// A unit of work; receives the executing worker's id in [0, numWorkers).
  using Task = std::function<void(unsigned WorkerId)>;

  /// Spawns \p Workers threads (at least 1).
  explicit ThreadPool(unsigned Workers);

  /// Drains remaining work, then joins every worker. The drain *runs*
  /// queued-but-unstarted tasks to completion — destroying a pool never
  /// silently drops work.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numWorkers() const { return static_cast<unsigned>(Threads.size()); }

  /// Enqueues one task (round-robin across worker deques).
  void submit(Task T);

  /// Blocks until every submitted task has finished executing.
  void waitIdle();

  /// A sensible default width: the hardware concurrency, at least 1.
  static unsigned defaultWorkers();

private:
  void workerLoop(unsigned Id);

  /// Executes \p T, accounting busy time to the metrics registry and a
  /// "pool.task" span when observability is on. Called with no pool lock
  /// held — tasks must never run under StateMutex or a queue mutex.
  void runTask(unsigned Id, Task &T);

  /// Pops work for worker \p Id: its own deque back first, then steals
  /// from the front of the others. Returns false when nothing is queued.
  /// Takes queue mutexes one at a time, never StateMutex.
  bool grabTask(unsigned Id, Task &Out);

  struct WorkerQueue {
    explicit WorkerQueue(ThreadPool &Parent) : Parent(Parent) {}

    /// Back-pointer so the lock-order annotation below can name the
    /// pool's StateMutex from inside the nested struct.
    ThreadPool &Parent;

    /// Leaf lock: nested inside StateMutex on the submit/cancel/recheck
    /// paths, taken alone by grabTask. Never wraps another lock.
    Mutex M SUS_ACQUIRED_AFTER(Parent.StateMutex);
    std::deque<Task> Q SUS_GUARDED_BY(M);
  };

  /// Written once in the constructor before any worker starts, immutable
  /// afterwards — the vector itself needs no guard, only each queue's Q.
  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Threads;

  Mutex StateMutex;
  CondVar WorkAvailable; ///< Signalled on submit/stop.
  CondVar AllDone;       ///< Signalled when Unfinished==0.
  /// Queued + currently executing tasks.
  size_t Unfinished SUS_GUARDED_BY(StateMutex) = 0;
  /// Round-robin submit cursor.
  size_t NextQueue SUS_GUARDED_BY(StateMutex) = 0;
  bool Stopping SUS_GUARDED_BY(StateMutex) = false;
};

} // namespace sus

#endif // SUS_SUPPORT_THREADPOOL_H
