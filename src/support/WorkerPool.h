//===- WorkerPool.h - Process-wide fork/join worker pool --------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One fixed set of worker threads shared by every parallel path that runs
/// inside a query: the fuzz sweep's mutant lanes and the portfolio races'
/// helper workers. Threads are created only when a caller asks for a
/// wider pool than exists (reserve), never per call, and live until the
/// process exits.
///
/// Work is forked into a TaskGroup and joined with the caller running:
/// TaskGroup::wait first executes the group's still-queued tasks on the
/// calling thread, then blocks until the ones a pool thread already took
/// are done. So a fork from a thread that is itself a busy pool worker
/// never deadlocks -- if no lane is free, the forker runs its own tasks.
/// A task that has not started can be cancelled (TaskGroup::cancel), which
/// is how a decided portfolio race drops its unneeded helpers.
///
/// Tasks run in FIFO order. A task's escaped exception is captured at the
/// task boundary and rethrown by wait(); the pool thread survives it.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SUPPORT_WORKERPOOL_H
#define BUGASSIST_SUPPORT_WORKERPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bugassist {

class TaskGroup;

class WorkerPool {
public:
  WorkerPool() = default;
  /// Stops the threads (after they drain the queue) and joins them.
  ~WorkerPool();
  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// The process-wide pool. It starts with no threads.
  static WorkerPool &global();

  /// Grows the pool to at least \p N threads. It never shrinks, so its
  /// size is the widest request made so far.
  void reserve(size_t N);
  size_t size() const;

  /// Runs queued tasks, of any group, on the calling thread until the
  /// queue is empty. A lane calls this between its own jobs so forked
  /// work waiting for a free thread does not wait behind it.
  /// \returns the number of tasks run.
  size_t runPending();

private:
  friend class TaskGroup;
  struct Task {
    std::function<void()> Fn;
    TaskGroup *Owner;
  };

  void workerLoop();
  /// Runs \p T with the lock released and retires it from its group.
  /// \p L is held on entry and on return.
  void run(Task T, std::unique_lock<std::mutex> &L);

  mutable std::mutex M;
  std::condition_variable Wake; ///< a task was queued, or the pool stops
  std::deque<Task> Queue;
  size_t Idle = 0; ///< threads waiting on Wake
  bool Stopping = false;
  std::vector<std::thread> Threads;
};

/// Tasks forked together and joined together. The group must outlive its
/// tasks: wait() (or the destructor) returns only when none is queued or
/// running.
class TaskGroup {
public:
  explicit TaskGroup(WorkerPool &Pool = WorkerPool::global()) : Pool(Pool) {}
  /// Cancels the unstarted tasks and waits for the running ones. Their
  /// exceptions are dropped: a group destroyed without wait() is being
  /// unwound by an exception of its owner's, which takes precedence.
  ~TaskGroup();
  TaskGroup(const TaskGroup &) = delete;
  TaskGroup &operator=(const TaskGroup &) = delete;

  /// Queues \p Fn on the pool.
  void fork(std::function<void()> Fn);

  /// Removes this group's tasks that no thread has started; they never
  /// run. \returns how many were removed.
  size_t cancel();

  /// Runs this group's unstarted tasks on the calling thread, then waits
  /// for the started ones. Rethrows the first exception a task let
  /// escape.
  void wait();

private:
  friend class WorkerPool;
  /// wait() without the rethrow; \returns the first escaped exception.
  std::exception_ptr join();

  WorkerPool &Pool;
  // Guarded by Pool.M.
  size_t Outstanding = 0; ///< queued + running
  std::exception_ptr Error;
  std::condition_variable Done; ///< Outstanding reached 0
};

} // namespace bugassist

#endif // BUGASSIST_SUPPORT_WORKERPOOL_H
