//===- workerpool_test.cpp - Fork/join worker pool tests ------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The pool's contract: every forked task runs exactly once unless it is
// cancelled before it starts; wait() runs the group's unstarted tasks on
// the caller and rethrows a task's exception; the pool only grows; and a
// fork from inside a pool task joins even when every lane is busy. Most
// tests use a private pool so the thread counts are exact. This suite is
// in the ThreadSanitizer set in CI.
//
//===----------------------------------------------------------------------===//

#include "support/WorkerPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace bugassist;

namespace {

/// A gate the blocking tasks wait on until the test opens it.
class Gate {
public:
  void pass() {
    std::unique_lock<std::mutex> L(M);
    Opened.wait(L, [this] { return Open; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> G(M);
      Open = true;
    }
    Opened.notify_all();
  }

private:
  std::mutex M;
  std::condition_variable Opened;
  bool Open = false;
};

/// Occupies all \p Lanes threads of \p Pool with tasks blocked on \p G;
/// returns once every one of them has started.
void holdLanes(TaskGroup &Blockers, Gate &G, std::atomic<size_t> &Started,
               size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Blockers.fork([&] {
      ++Started;
      G.pass();
    });
  while (Started < Lanes)
    std::this_thread::yield();
}

} // namespace

TEST(WorkerPool, EveryForkedTaskRunsExactlyOnce) {
  WorkerPool Pool;
  Pool.reserve(3);
  std::atomic<int> Runs[100] = {};
  TaskGroup G(Pool);
  for (int I = 0; I < 100; ++I)
    G.fork([&Runs, I] { ++Runs[I]; });
  G.wait();
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Runs[I].load(), 1) << "task " << I;
}

TEST(WorkerPool, GrowsToTheWidestRequestAndNeverShrinks) {
  WorkerPool Pool;
  EXPECT_EQ(Pool.size(), 0u);
  Pool.reserve(2);
  EXPECT_EQ(Pool.size(), 2u);
  Pool.reserve(1);
  EXPECT_EQ(Pool.size(), 2u);
  Pool.reserve(3);
  EXPECT_EQ(Pool.size(), 3u);
}

TEST(WorkerPool, WaitRunsUnstartedTasksOnTheCaller) {
  // No threads at all: the caller runs everything itself.
  WorkerPool Pool;
  std::thread::id Caller = std::this_thread::get_id();
  int Runs = 0;
  bool AllOnCaller = true;
  TaskGroup G(Pool);
  for (int I = 0; I < 3; ++I)
    G.fork([&] {
      ++Runs;
      AllOnCaller = AllOnCaller && std::this_thread::get_id() == Caller;
    });
  G.wait();
  EXPECT_EQ(Runs, 3);
  EXPECT_TRUE(AllOnCaller);
}

TEST(WorkerPool, CancelDropsOnlyUnstartedTasks) {
  WorkerPool Pool;
  Pool.reserve(1);
  Gate G;
  std::atomic<size_t> Started{0};
  TaskGroup Blockers(Pool);
  holdLanes(Blockers, G, Started, 1);

  std::atomic<int> Ran{0};
  TaskGroup Work(Pool);
  Work.fork([&] { ++Ran; });
  Work.fork([&] { ++Ran; });
  EXPECT_EQ(Work.cancel(), 2u);
  EXPECT_EQ(Work.cancel(), 0u);
  // The started blocker is not cancellable; the group waits for it.
  EXPECT_EQ(Blockers.cancel(), 0u);
  G.open();
  Blockers.wait();
  Work.wait();
  EXPECT_EQ(Ran.load(), 0);
}

TEST(WorkerPool, WaitRethrowsATaskExceptionAndThePoolSurvives) {
  WorkerPool Pool;
  Pool.reserve(2);
  std::atomic<int> Ran{0};
  {
    TaskGroup G(Pool);
    G.fork([] { throw std::runtime_error("task failed"); });
    for (int I = 0; I < 4; ++I)
      G.fork([&] { ++Ran; });
    EXPECT_THROW(G.wait(), std::runtime_error);
  }
  EXPECT_EQ(Ran.load(), 4); // the other tasks still ran
  TaskGroup Again(Pool);
  Again.fork([&] { ++Ran; });
  Again.wait();
  EXPECT_EQ(Ran.load(), 5);
}

TEST(WorkerPool, RunPendingTakesQueuedWorkOfAnyGroup) {
  WorkerPool Pool;
  Pool.reserve(1);
  Gate G;
  std::atomic<size_t> Started{0};
  TaskGroup Blockers(Pool);
  holdLanes(Blockers, G, Started, 1);

  int Ran = 0;
  TaskGroup Other(Pool);
  Other.fork([&] { ++Ran; });
  Other.fork([&] { ++Ran; });
  EXPECT_EQ(Pool.runPending(), 2u);
  EXPECT_EQ(Ran, 2);
  G.open();
  Blockers.wait();
  Other.wait();
}

TEST(WorkerPool, ForkFromEveryBusyLaneNeverDeadlocks) {
  // Every pool thread runs an outer task that forks and joins inner tasks
  // while all lanes are busy; the inner tasks can only run on their
  // forkers, through wait()'s caller-runs step.
  const size_t Lanes = 3, Inner = 4;
  WorkerPool Pool;
  Pool.reserve(Lanes);
  std::atomic<size_t> Started{0}, InnerRuns{0};
  TaskGroup Outer(Pool);
  for (size_t I = 0; I < Lanes; ++I)
    Outer.fork([&] {
      ++Started;
      while (Started < Lanes)
        std::this_thread::yield();
      TaskGroup Nested(Pool);
      for (size_t J = 0; J < Inner; ++J)
        Nested.fork([&] { ++InnerRuns; });
      Nested.wait();
    });
  while (Started < Lanes)
    std::this_thread::yield();
  Outer.wait();
  EXPECT_EQ(InnerRuns.load(), Lanes * Inner);
}

TEST(WorkerPool, TheGlobalPoolIsOneInstance) {
  EXPECT_EQ(&WorkerPool::global(), &WorkerPool::global());
  size_t Before = WorkerPool::global().size();
  WorkerPool::global().reserve(Before + 1);
  EXPECT_EQ(WorkerPool::global().size(), Before + 1);
}
