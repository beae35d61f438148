// A small fixed-size FIFO thread pool, shared by the inference shards
// (pipeline::ShardSet) and the routing sweep.
//
// No shard task ever blocks on another task: producers push and return,
// and a pump drains what is ready and returns, so the shards need no
// particular order. FIFO submission order is part of the contract for the
// routing sweep: trees start in origin order, so the tree the visiting
// thread waits for is always the oldest one in flight, and the sweep
// cannot deadlock even with a single worker thread.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace mlp::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Tasks start in submission order. An exception
  /// escaping a task never terminates the worker: the first one is
  /// captured and rethrown from wait_idle().
  void submit(std::function<void()> task) MLP_EXCLUDES(mutex_);

  /// Block until every submitted task has finished. If any task threw,
  /// rethrows the first captured exception (later ones are dropped); the
  /// pool stays usable afterwards.
  void wait_idle() MLP_EXCLUDES(mutex_);

  /// The pool size to use for `requested` (0 means hardware concurrency).
  static std::size_t resolve(std::size_t requested);

 private:
  void worker_loop() MLP_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_available_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ MLP_GUARDED_BY(mutex_);
  std::size_t in_flight_ MLP_GUARDED_BY(mutex_) = 0;
  bool stopping_ MLP_GUARDED_BY(mutex_) = false;
  /// First exception a task leaked.
  std::exception_ptr first_error_ MLP_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
};

}  // namespace mlp::util
