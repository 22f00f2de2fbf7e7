//===- WorkerPool.cpp - Process-wide fork/join worker pool ----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/WorkerPool.h"

#include <algorithm>

using namespace bugassist;

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> G(M);
    Stopping = true;
  }
  Wake.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

WorkerPool &WorkerPool::global() {
  static WorkerPool Pool;
  return Pool;
}

void WorkerPool::reserve(size_t N) {
  std::lock_guard<std::mutex> G(M);
  while (Threads.size() < N)
    Threads.emplace_back([this] { workerLoop(); });
}

size_t WorkerPool::size() const {
  std::lock_guard<std::mutex> G(M);
  return Threads.size();
}

size_t WorkerPool::runPending() {
  size_t N = 0;
  std::unique_lock<std::mutex> L(M);
  while (!Queue.empty()) {
    Task T = std::move(Queue.front());
    Queue.pop_front();
    run(std::move(T), L);
    ++N;
  }
  return N;
}

void WorkerPool::workerLoop() {
  std::unique_lock<std::mutex> L(M);
  for (;;) {
    ++Idle;
    Wake.wait(L, [this] { return Stopping || !Queue.empty(); });
    --Idle;
    if (Queue.empty())
      return; // stopping, and nothing is left for a group to wait on
    Task T = std::move(Queue.front());
    Queue.pop_front();
    run(std::move(T), L);
  }
}

void WorkerPool::run(Task T, std::unique_lock<std::mutex> &L) {
  L.unlock();
  std::exception_ptr E;
  try {
    T.Fn();
  } catch (...) {
    E = std::current_exception();
  }
  T.Fn = nullptr; // release the captures before the owner can return
  L.lock();
  TaskGroup &G = *T.Owner;
  if (E && !G.Error)
    G.Error = E;
  if (--G.Outstanding == 0)
    G.Done.notify_all();
}

TaskGroup::~TaskGroup() {
  cancel();
  join();
}

void TaskGroup::fork(std::function<void()> Fn) {
  bool Notify;
  {
    std::lock_guard<std::mutex> G(Pool.M);
    ++Outstanding;
    Pool.Queue.push_back({std::move(Fn), this});
    Notify = Pool.Idle > 0;
  }
  if (Notify)
    Pool.Wake.notify_one();
}

size_t TaskGroup::cancel() {
  std::deque<WorkerPool::Task> Dropped; // destroyed outside the lock
  std::lock_guard<std::mutex> G(Pool.M);
  auto Mine = [this](const WorkerPool::Task &T) { return T.Owner == this; };
  for (auto It = std::find_if(Pool.Queue.begin(), Pool.Queue.end(), Mine);
       It != Pool.Queue.end();
       It = std::find_if(It, Pool.Queue.end(), Mine)) {
    Dropped.push_back(std::move(*It));
    It = Pool.Queue.erase(It);
  }
  Outstanding -= Dropped.size();
  return Dropped.size();
}

std::exception_ptr TaskGroup::join() {
  std::unique_lock<std::mutex> L(Pool.M);
  auto Mine = [this](const WorkerPool::Task &T) { return T.Owner == this; };
  for (;;) {
    auto It = std::find_if(Pool.Queue.begin(), Pool.Queue.end(), Mine);
    if (It == Pool.Queue.end())
      break;
    WorkerPool::Task T = std::move(*It);
    Pool.Queue.erase(It);
    Pool.run(std::move(T), L);
  }
  Done.wait(L, [this] { return Outstanding == 0; });
  std::exception_ptr E = Error;
  Error = nullptr;
  return E;
}

void TaskGroup::wait() {
  if (std::exception_ptr E = join())
    std::rethrow_exception(E);
}
