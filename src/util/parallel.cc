#include "util/parallel.h"

#include <algorithm>
#include <cstdlib>

namespace limbo::util {

size_t DefaultThreadCount() {
  static const size_t cached = [] {
    if (const char* env = std::getenv("LIMBO_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1 &&
          static_cast<unsigned long>(v) <= kMaxThreads) {
        return static_cast<size_t>(v);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? size_t{1} : static_cast<size_t>(hw);
  }();
  return cached;
}

ThreadPool::ThreadPool(size_t threads)
    : lanes_(threads == 0 ? DefaultThreadCount() : threads) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // std::jthread joins on destruction.
}

void ThreadPool::EnsureWorkers() {
  if (!workers_.empty() || lanes_ <= 1) return;
  workers_.reserve(lanes_ - 1);
  for (size_t lane = 1; lane < lanes_; ++lane) {
    workers_.emplace_back([this, lane] {
      uint64_t seen = 0;
      std::unique_lock<std::mutex> lock(mu_);
      while (true) {
        work_cv_.wait(lock,
                      [&] { return stopping_ || generation_ != seen; });
        if (stopping_) return;
        seen = generation_;
        lock.unlock();
        RunLane(lane);
        lock.lock();
        if (--active_ == 0) done_cv_.notify_one();
      }
    });
  }
}

void ThreadPool::RunLane(size_t lane) {
  for (size_t chunk = lane;; chunk += lanes_) {
    const size_t begin = task_begin_ + chunk * task_grain_;
    if (begin >= task_end_) break;
    const size_t end = std::min(begin + task_grain_, task_end_);
    (*task_fn_)(begin, end, lane);
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  ParallelFor(begin, end, grain,
              [&fn](size_t lo, size_t hi, size_t) { fn(lo, hi); });
}

void ThreadPool::ParallelFor(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t chunks = (end - begin + grain - 1) / grain;
  if (lanes_ <= 1 || chunks <= 1) {
    fn(begin, end, 0);
    return;
  }
  EnsureWorkers();
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_begin_ = begin;
    task_end_ = end;
    task_grain_ = grain;
    task_fn_ = &fn;
    active_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  RunLane(0);  // the caller is lane 0
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  task_fn_ = nullptr;
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  static ThreadPool shared(0);
  shared.ParallelFor(begin, end, grain, fn);
}

}  // namespace limbo::util
