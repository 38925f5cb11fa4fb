// Persistent worker pool for the cycle engine's intra-run parallelism.
//
// One pool per engine, sized at construction (`--run-jobs N`). The calling
// thread always participates as worker 0, so a pool of size 1 never spawns
// a thread and runs the task inline — `--run-jobs 1` therefore executes the
// exact same code path as N > 1, just without peers. Threads for workers
// 1..N-1 are spawned lazily on the first multi-worker run() and parked on a
// condition variable between runs (a generation counter wakes them), so the
// per-dispatch cost is two lock/notify pairs, not thread creation. run()
// takes the task by reference and never copies it into a std::function, so
// a dispatch allocates nothing: merges run one dispatch per exchange wave.
//
// run() is a barrier: it returns only after every worker finished the task.
// The first exception thrown by any worker is captured and rethrown on the
// caller after the barrier. The pool itself synchronizes only through its
// mutex/condition variables (TSan-clean); everything the tasks share is the
// engine's responsibility (per-worker outbox lanes, disjoint node slices).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vitis::sim {

class WorkerPool {
 public:
  /// `jobs` is the total worker count including the caller; 0 clamps to 1.
  explicit WorkerPool(std::size_t jobs) : jobs_(jobs == 0 ? 1 : jobs) {}

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool();

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Invoke `task(worker)` once per worker in [0, jobs) — worker 0 on the
  /// calling thread — and block until all finished. Rethrows the first
  /// worker exception after the barrier.
  template <typename Task>
  void run(Task&& task) {
    using Fn = std::remove_reference_t<Task>;
    dispatch(TaskRef{const_cast<void*>(static_cast<const void*>(&task)),
                     [](void* fn, std::size_t worker) {
                       (*static_cast<Fn*>(fn))(worker);
                     }});
  }

 private:
  // A non-owning reference to the caller's task, valid for one run().
  struct TaskRef {
    void* fn = nullptr;
    void (*call)(void* fn, std::size_t worker) = nullptr;

    void operator()(std::size_t worker) const { call(fn, worker); }
  };

  void dispatch(TaskRef task);
  void thread_main(std::size_t worker);

  std::size_t jobs_;
  std::vector<std::thread> threads_;  // lazily spawned, workers 1..jobs-1
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  TaskRef task_;
  std::uint64_t generation_ = 0;  // bumped per run(); wakes parked workers
  std::size_t pending_ = 0;       // peer workers still inside the task
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace vitis::sim
