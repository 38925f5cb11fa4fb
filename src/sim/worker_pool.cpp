#include "sim/worker_pool.hpp"

namespace vitis::sim {

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void WorkerPool::dispatch(TaskRef task) {
  if (jobs_ == 1) {
    task(0);
    return;
  }
  if (threads_.empty()) {
    threads_.reserve(jobs_ - 1);
    for (std::size_t worker = 1; worker < jobs_; ++worker) {
      threads_.emplace_back([this, worker] { thread_main(worker); });
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    task_ = task;
    pending_ = jobs_ - 1;
    error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  try {
    task(0);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error_ == nullptr) error_ = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  task_ = TaskRef{};
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void WorkerPool::thread_main(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    TaskRef task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = task_;
    }
    try {
      task(worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace vitis::sim
